package bounds

import "repro/internal/tree"

// Profile caches the per-tree inputs of every lower bound in this
// package: the label multiset, the binary-branch histogram, and the
// preorder/postorder label serializations. Computing a Profile once per
// tree turns the per-pair bound evaluation from "rebuild two histograms,
// then compare" into a pure comparison — the saving that makes
// bound-based pre-filtering worthwhile in batch joins, where every tree
// participates in many pairs.
type Profile struct {
	t        *tree.Tree
	labels   map[string]int
	branches map[branch]int
	pre      []string // preorder label sequence
	post     []string // postorder label sequence
}

// NewProfile precomputes the bound inputs for t in O(|t|) time.
func NewProfile(t *tree.Tree) *Profile {
	n := t.Len()
	p := &Profile{
		t:        t,
		labels:   make(map[string]int, n),
		branches: binaryBranches(t),
		pre:      make([]string, n),
		post:     make([]string, n),
	}
	for i := 0; i < n; i++ {
		p.labels[t.Label(i)]++
		p.post[i] = t.Label(i)
		p.pre[i] = t.Label(t.ByPre(i))
	}
	return p
}

// Tree returns the profiled tree.
func (p *Profile) Tree() *tree.Tree { return p.t }

// LowerProfiled returns exactly Lower(a.Tree(), b.Tree()) — the best of
// the size, label-histogram, binary-branch and string-edit lower bounds —
// but from precomputed profiles, skipping all per-tree work.
func LowerProfiled(a, b *Profile) float64 {
	lb := Size(a.t, b.t)
	if v := labelHistogramProfiled(a, b); v > lb {
		lb = v
	}
	if v := binaryBranchProfiled(a, b); v > lb {
		lb = v
	}
	if v := stringEditProfiled(a, b); v > lb {
		lb = v
	}
	return lb
}

// LabelHistogramProfiled returns LabelHistogram(a.Tree(), b.Tree()) from
// the profiles: max(|F|, |G|) minus the label multisets' intersection,
// never below the size bound. It costs one lookup per distinct label, so
// it is the lower bound to try before anything that visits node pairs.
func LabelHistogramProfiled(a, b *Profile) float64 { return labelHistogramProfiled(a, b) }

// SubtreeLowerProfiled returns a lower bound on the unit-cost distance
// from the query q to every subtree of d at once:
// |Q| − |labels(Q) ∩ labels(d)| (multiset intersection). A subtree's
// labels are a sub-multiset of d's, so at most that many query nodes
// can map to a subtree node without a rename; every other query node
// costs at least one edit. The bound is never below |Q| − |d|, the
// size bound of the largest subtree.
func SubtreeLowerProfiled(q, d *Profile) float64 {
	return float64(q.t.Len() - commonLabels(q, d))
}

func labelHistogramProfiled(a, b *Profile) float64 {
	m := a.t.Len()
	if b.t.Len() > m {
		m = b.t.Len()
	}
	return float64(m - commonLabels(a, b))
}

// commonLabels returns the size of the label multiset intersection.
func commonLabels(a, b *Profile) int {
	// Iterate the smaller histogram; the intersection is symmetric.
	ha, hb := a.labels, b.labels
	if len(hb) < len(ha) {
		ha, hb = hb, ha
	}
	common := 0
	for l, ca := range ha {
		if cb := hb[l]; cb < ca {
			common += cb
		} else {
			common += ca
		}
	}
	return common
}

func binaryBranchProfiled(a, b *Profile) float64 {
	ha, hb := a.branches, b.branches
	l1 := 0
	for k, ca := range ha {
		if cb := hb[k]; cb < ca {
			l1 += ca - cb
		}
	}
	for k, cb := range hb {
		if ca := ha[k]; ca < cb {
			l1 += cb - ca
		}
	}
	return float64(l1) / 5
}

func stringEditProfiled(a, b *Profile) float64 {
	post := stringEditDistance(
		func(i int) string { return a.post[i] }, len(a.post),
		func(j int) string { return b.post[j] }, len(b.post),
	)
	pre := stringEditDistance(
		func(i int) string { return a.pre[i] }, len(a.pre),
		func(j int) string { return b.pre[j] }, len(b.pre),
	)
	if pre > post {
		return float64(pre)
	}
	return float64(post)
}
