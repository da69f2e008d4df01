package strategy

import "repro/internal/tree"

// Decomp holds, for every subtree F_v of a tree, the decomposition
// cardinalities the cost formula needs (Section 5.2):
//
//   - A[v]  = |A(F_v)|, the size of the full decomposition (Lemma 1),
//   - FL[v] = |F(F_v, ΓL(F_v))|, the relevant subforests of the recursive
//     left-path decomposition (Lemma 3),
//   - FR[v] = |F(F_v, ΓR(F_v))|, likewise for right paths.
//
// By Lemma 2, |F(F_v, γ)| = |F_v| for any single root-leaf path γ, so no
// array is needed for it.
type Decomp struct {
	A  []int64
	FL []int64
	FR []int64
}

// NewDecomp computes the decomposition cardinalities for all subtrees of
// t in O(|t|) time.
func NewDecomp(t *tree.Tree) *Decomp {
	n := t.Len()
	d := new(Decomp)
	d.fill(t, make([]int64, n), make([]int64, n), make([]int64, n))
	return d
}

// fill computes the cardinalities of t into a, fl and fr (each of length
// t.Len()) and makes them d's arrays. One bottom-up pass serves all
// three: children precede their parent in postorder.
func (d *Decomp) fill(t *tree.Tree, a, fl, fr []int64) {
	d.A, d.FL, d.FR = a, fl, fr
	for v := range a {
		sz := int64(t.Size(v))
		kids := t.Children(v)
		// Lemma 1: |A(F)| = |F|(|F|+3)/2 − Σ_{x∈F} |F_x|. The sum over
		// F_v is |F_v| plus each child's sum, and Lemma 1 for the child
		// gives that sum back: Σ_{x∈F_c} |F_x| = |F_c|(|F_c|+3)/2 − A[c].
		sum := sz
		for _, c := range kids {
			szc := int64(t.Size(c))
			sum += szc*(szc+3)/2 - a[c]
		}
		a[v] = sz*(sz+3)/2 - sum
		if len(kids) == 0 {
			fl[v] = 1
			fr[v] = 1
			continue
		}
		// Lemma 3: |F(F,Γ)| = Σ of the sizes of the relevant subtrees of
		// the recursive decomposition. The left path of F_v continues in
		// the leftmost child c1, so the relevant subtrees of F_v are the
		// other children plus the relevant subtrees of F_c1:
		//   FL[v] = |F_v| + Σ_{c≠c1} FL[c] + (FL[c1] − |F_c1|).
		l := kids[0]
		r := kids[len(kids)-1]
		fl[v] = sz + fl[l] - int64(t.Size(l))
		fr[v] = sz + fr[r] - int64(t.Size(r))
		for _, c := range kids {
			if c != l {
				fl[v] += fl[c]
			}
			if c != r {
				fr[v] += fr[c]
			}
		}
	}
}

// F returns |F(F_v, Γ)| for the recursive decomposition of F_v with paths
// of type pt. For single-path counts use Lemma 2 (= subtree size). Heavy
// recursive decompositions are not needed by the cost formula (GTED pairs
// heavy paths with the full decomposition A), so Heavy is not supported.
func (d *Decomp) F(v int, pt PathType) int64 {
	switch pt {
	case Left:
		return d.FL[v]
	case Right:
		return d.FR[v]
	}
	panic("strategy: Decomp.F supports Left and Right only")
}
