package gted

import "repro/internal/tree"

// SpectraBuckets is the number of quantized depth buckets of a subtree
// depth spectrum. Bucket t of a subtree holds the exact count of nodes at
// subtree-relative depth ≥ t, for t < SpectraBuckets; deeper structure is
// only visible through the lowest buckets (which remain exact), so a
// larger constant trades arena memory and build time for keyroot-band
// sharpness on very deep trees.
const SpectraBuckets = 8

// depthSpectraInto computes the quantized depth spectrum of every
// subtree of t into out (length t.Len()*SpectraBuckets): SpectraBuckets
// suffix counts per node, where entry [v*SpectraBuckets+d] is the number
// of nodes in the subtree rooted at v whose depth below v is at least d.
// Entry 0 is the subtree size; the spectrum refines the single height
// scalar of the keyroot-level band into a per-depth mass profile (see the
// keyroot band in gted.go: every node of one tree must map at a
// compatible depth of the other or be deleted, so a depth level whose
// population cannot be absorbed by the admissible band proves the pair
// hopeless). It runs in O(n·SpectraBuckets) time.
func depthSpectraInto(t *tree.Tree, out []int32) {
	const B = SpectraBuckets
	for v := 0; v < t.Len(); v++ { // postorder: children precede parents
		row := out[v*B : v*B+B : v*B+B]
		row[0] = 1
		for d := 1; d < B; d++ {
			row[d] = 0
		}
		for _, c := range t.Children(v) {
			crow := out[c*B : c*B+B]
			// A node at depth ≥ d−1 below the child is at depth ≥ d below
			// v; counts stay exact because each bucket is a suffix count.
			row[0] += crow[0]
			for d := 1; d < B; d++ {
				row[d] += crow[d-1]
			}
		}
	}
}
