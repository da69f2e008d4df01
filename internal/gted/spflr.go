package gted

import (
	"math"

	"repro/internal/cost"
	"repro/internal/tree"
)

// zsview is a coordinate view of a tree under which a Zhang–Shasha-style
// left-path forest DP can run. The left view uses plain postorder
// coordinates and leftmost-leaf descendants. The right view uses mirror
// postorder (the postorder of the tree with every node's children
// reversed) and rightmost-leaf descendants, which turns the right-path
// function ΔR into ΔL on mirrored coordinates — one DP implementation
// serves both path types.
type zsview struct {
	t      *tree.Tree
	mirror bool
}

// coordOf maps a postorder node id to the view coordinate.
func (v zsview) coordOf(node int) int {
	if v.mirror {
		return v.t.MPost(node)
	}
	return node
}

// nodeOf maps a view coordinate back to the postorder node id.
func (v zsview) nodeOf(c int) int {
	if v.mirror {
		return v.t.ByMPost(c)
	}
	return c
}

// leafmost returns the view coordinate of the view-leftmost leaf of
// node, the node at coordinate c. A subtree occupies a contiguous range
// that ends at its root in postorder and in mirror postorder alike, so
// its view-leftmost leaf is the range's first coordinate.
func (v zsview) leafmost(c, node int) int { return c - v.t.Size(node) + 1 }

// spfLR is the single-path function for left and right paths: it computes
// δ(T1_x, T2_y) for every x on the view-left path of the subtree rooted
// at v1 and every y in the subtree rooted at v2, given (precondition)
// that distances for all subtrees of T1/v1 hanging off that path are
// already in the distance matrix.
//
// It evaluates |T1_v1| × |F(T2_v2, Γ_view(T2_v2))| relevant subproblems
// (Lemma 4), counted into the runner's stats. In bounded mode each
// keyroot runs on the structural band instead: cells whose prefix sizes
// differ by more than the cheapest operations allow under tau are
// skipped, since such a forest pair needs at least |di−dj| deletions or
// insertions and its true value already exceeds the cutoff.
func (r *Runner) spfLR(view1 zsview, v1 int, view2 zsview, v2 int, cm *cost.Compiled, dv dview) {
	t1, t2 := view1.t, view2.t
	s1 := t1.Size(v1)
	hi1 := view1.coordOf(v1)
	lo1 := hi1 - s1 + 1
	s2 := t2.Size(v2)
	hi2 := view2.coordOf(v2)
	lo2 := hi2 - s2 + 1

	// Keyroots of the T2 subtree in view coordinates, ascending: the
	// subtree root plus every node whose view-leftmost leaf differs from
	// its parent's (i.e. nodes with a left sibling in the view).
	ks := r.ar.keyroots[:0]
	for c := lo2; c <= hi2; c++ {
		if c == hi2 {
			ks = append(ks, c)
			continue
		}
		n := view2.nodeOf(c)
		p := t2.Parent(n)
		if view2.leafmost(view2.coordOf(p), p) != view2.leafmost(c, n) {
			ks = append(ks, c)
		}
	}
	defer func() { r.ar.keyroots = ks[:0] }() // retain capacity for the next call

	maxD, maxI, bounded := r.band(dv.swap)

	for _, kc := range ks {
		if r.stop.Load() {
			return
		}
		jlo := view2.leafmost(kc, view2.nodeOf(kc))
		s2k := kc - jlo + 1
		w := s2k + 1 // scratch row width

		if bounded {
			// Compressed rows when the band is narrower than the row,
			// full-width rows otherwise: the two layouts compute the same
			// cells, the compressed one streams only the band's memory.
			if bw := maxD + maxI + 1; bw < w {
				fdB := growF64(&r.ar.fdB, (s1+1)*bw)
				r.stats.CompressedRows += int64(s1) + 1
				r.stats.RowCells += int64(s1+1) * int64(bw)
				r.spfLRSparseKeyroot(view1, lo1, s1, view2, jlo, kc, cm, dv, fdB, maxD, maxI)
				continue
			}
		}
		fd := growF64(&r.ar.fd, (s1+1)*w)
		r.stats.RowCells += int64(s1+1) * int64(w)
		fd[0] = 0
		for dj := 1; dj <= s2k; dj++ {
			fd[dj] = fd[dj-1] + cm.Ins[view2.nodeOf(jlo+dj-1)]
		}
		if bounded {
			r.spfLRBandedKeyroot(view1, lo1, s1, view2, jlo, kc, cm, dv, fd, maxD, maxI)
			continue
		}
		r.stats.Subproblems += int64(s1) * int64(s2k)
		for di := 1; di <= s1; di++ {
			i := lo1 + di - 1
			n1 := view1.nodeOf(i)
			del1 := cm.Del[n1]
			fd[di*w] = fd[(di-1)*w] + del1
			fl1 := view1.leafmost(i, n1)
			onPath1 := fl1 == lo1
			for dj := 1; dj <= s2k; dj++ {
				j := jlo + dj - 1
				n2 := view2.nodeOf(j)
				fl2 := view2.leafmost(j, n2)
				tt := onPath1 && fl2 == jlo
				del := fd[(di-1)*w+dj] + del1
				ins := fd[di*w+dj-1] + cm.Ins[n2]
				var match float64
				if tt {
					// Both prefixes are whole trees rooted at n1, n2.
					match = fd[(di-1)*w+dj-1] + cm.Ren(n1, n2)
				} else {
					match = fd[(fl1-lo1)*w+(fl2-jlo)] + dv.get(n1, n2)
				}
				m := del
				if ins < m {
					m = ins
				}
				if match < m {
					m = match
				}
				fd[di*w+dj] = m
				if tt {
					dv.set(n1, n2, m)
				}
			}
		}
	}
}

// keyrootChain returns the T2 path chain of the keyroot kc, ascending:
// the dj offsets (and node ids) of the prefixes that are whole subtrees
// with view-leftmost leaf jlo — exactly the cells that publish into the
// distance matrix. Both slices are arena scratch.
func (r *Runner) keyrootChain(view2 zsview, jlo, kc int) (chD, chN []int32) {
	chD = r.ar.chainDJ[:0]
	chN = r.ar.chainN2[:0]
	for n := view2.nodeOf(jlo); ; n = view2.t.Parent(n) {
		cc := view2.coordOf(n)
		chD = append(chD, int32(cc-jlo+1))
		chN = append(chN, int32(n))
		if cc == kc {
			break
		}
	}
	r.ar.chainDJ, r.ar.chainN2 = chD, chN
	return chD, chN
}

// spfLRBandedKeyroot runs one keyroot of the ΔL/ΔR DP restricted to the
// structural band: row di computes only dj ∈ [di−maxD, di+maxI]. Cells
// outside the band hold stale scratch from earlier keyroots, so every
// read that can cross the band edge is guarded by the same integer
// predicate and priced +Inf instead — sound, because an out-of-band
// prefix pair needs more than maxD deletions or maxI insertions and its
// true value therefore exceeds the cutoff (see the SetCutoff comment).
// Band-skipped cells on the T2 path chain still saturate their
// subtree-distance matrix entry to +Inf: later single-path functions
// read those entries.
func (r *Runner) spfLRBandedKeyroot(view1 zsview, lo1, s1 int, view2 zsview, jlo, kc int, cm *cost.Compiled, dv dview, fd []float64, maxD, maxI int) {
	inf := math.Inf(1)
	s2k := kc - jlo + 1
	w := s2k + 1
	chD, chN := r.keyrootChain(view2, jlo, kc)

	for di := 1; di <= s1; di++ {
		i := lo1 + di - 1
		n1 := view1.nodeOf(i)
		del1 := cm.Del[n1]
		fd[di*w] = fd[(di-1)*w] + del1
		fl1 := view1.leafmost(i, n1)
		onPath1 := fl1 == lo1
		lo := di - maxD
		if lo < 1 {
			lo = 1
		}
		hi := di + maxI
		if hi > s2k {
			hi = s2k
		}
		var skipped int64
		if lo > hi { // whole row out of band
			skipped = int64(s2k)
		} else {
			skipped = int64(lo-1) + int64(s2k-hi)
			r.stats.Subproblems += int64(hi - lo + 1)
		}
		r.stats.PrunedSubproblems += skipped
		r.stats.BandSkippedCells += skipped
		if onPath1 && skipped > 0 {
			// Saturate the matrix entries of band-skipped chain cells.
			for ci := 0; ci < len(chD) && int(chD[ci]) < lo; ci++ {
				dv.set(n1, int(chN[ci]), inf)
			}
			for ci := len(chD) - 1; ci >= 0 && int(chD[ci]) > hi; ci-- {
				dv.set(n1, int(chN[ci]), inf)
			}
		}
		for dj := lo; dj <= hi; dj++ {
			j := jlo + dj - 1
			n2 := view2.nodeOf(j)
			fl2 := view2.leafmost(j, n2)
			tt := onPath1 && fl2 == jlo
			// Neighbour reads can cross the band edge by one on a single
			// side each; the diagonal (di−1, dj−1) never leaves it.
			del := inf
			if dj-(di-1) <= maxI {
				del = fd[(di-1)*w+dj] + del1
			}
			ins := inf
			if di-(dj-1) <= maxD {
				ins = fd[di*w+dj-1] + cm.Ins[n2]
			}
			match := inf
			if tt {
				match = fd[(di-1)*w+dj-1] + cm.Ren(n1, n2)
			} else if a, b := fl1-lo1, fl2-jlo; a-b <= maxD && b-a <= maxI {
				match = fd[a*w+b] + dv.get(n1, n2)
			}
			m := del
			if ins < m {
				m = ins
			}
			if match < m {
				m = match
			}
			fd[di*w+dj] = m
			if tt {
				dv.set(n1, n2, m)
			}
		}
	}
}

// spfLRSparseKeyroot is spfLRBandedKeyroot on band-compressed row storage:
// the scratch slab fd holds only the bw = maxD+maxI+1 admissible cells of
// each of the s1+1 rows, with cell (di, dj) at fd[di*bw + (dj−di+maxD)] —
// offset-indexed by the band diagonal, so walking a row walks contiguous
// memory exactly as in the dense layout. A cell outside the band has no
// storage at all; every read that could cross the band edge carries the
// same integer predicate as the dense banded path and yields a virtual
// +Inf instead of touching memory (row 0 is materialized only up to
// offset maxI, column 0 only down to row maxD, matching the dense path's
// guards). Because the predicates, the evaluation order and the float
// arithmetic are all identical, the computed cells, the published matrix
// entries and every stats counter except CompressedRows/RowCells are
// bit-identical to the dense banded keyroot — only the memory streamed
// per row shrinks from w to bw.
func (r *Runner) spfLRSparseKeyroot(view1 zsview, lo1, s1 int, view2 zsview, jlo, kc int, cm *cost.Compiled, dv dview, fd []float64, maxD, maxI int) {
	inf := math.Inf(1)
	s2k := kc - jlo + 1
	bw := maxD + maxI + 1
	chD, chN := r.keyrootChain(view2, jlo, kc)

	// Row 0 (pure-insertion prefixes) exists only for dj ≤ maxI; the same
	// prefix-sum accumulation as the dense init keeps the floats identical.
	fd[maxD] = 0
	hi0 := maxI
	if hi0 > s2k {
		hi0 = s2k
	}
	for dj := 1; dj <= hi0; dj++ {
		fd[maxD+dj] = fd[maxD+dj-1] + cm.Ins[view2.nodeOf(jlo+dj-1)]
	}

	for di := 1; di <= s1; di++ {
		i := lo1 + di - 1
		n1 := view1.nodeOf(i)
		del1 := cm.Del[n1]
		row := di * bw
		prow := row - bw
		// Column 0 (pure-deletion prefixes) exists only for di ≤ maxD.
		if di <= maxD {
			fd[row+maxD-di] = fd[prow+maxD-di+1] + del1
		}
		fl1 := view1.leafmost(i, n1)
		onPath1 := fl1 == lo1
		lo := di - maxD
		if lo < 1 {
			lo = 1
		}
		hi := di + maxI
		if hi > s2k {
			hi = s2k
		}
		var skipped int64
		if lo > hi { // whole row out of band
			skipped = int64(s2k)
		} else {
			skipped = int64(lo-1) + int64(s2k-hi)
			r.stats.Subproblems += int64(hi - lo + 1)
		}
		r.stats.PrunedSubproblems += skipped
		r.stats.BandSkippedCells += skipped
		if onPath1 && skipped > 0 {
			// Saturate the matrix entries of band-skipped chain cells.
			for ci := 0; ci < len(chD) && int(chD[ci]) < lo; ci++ {
				dv.set(n1, int(chN[ci]), inf)
			}
			for ci := len(chD) - 1; ci >= 0 && int(chD[ci]) > hi; ci-- {
				dv.set(n1, int(chN[ci]), inf)
			}
		}
		for dj := lo; dj <= hi; dj++ {
			j := jlo + dj - 1
			n2 := view2.nodeOf(j)
			fl2 := view2.leafmost(j, n2)
			tt := onPath1 && fl2 == jlo
			off := dj - di + maxD // band offset of (di, dj)
			// Neighbour cells sit at off±1 in the adjacent rows; the
			// diagonal (di−1, dj−1) shares this cell's offset.
			del := inf
			if dj-(di-1) <= maxI {
				del = fd[prow+off+1] + del1
			}
			ins := inf
			if di-(dj-1) <= maxD {
				ins = fd[row+off-1] + cm.Ins[n2]
			}
			match := inf
			if tt {
				match = fd[prow+off] + cm.Ren(n1, n2)
			} else if a, b := fl1-lo1, fl2-jlo; a-b <= maxD && b-a <= maxI {
				match = fd[a*bw+b-a+maxD] + dv.get(n1, n2)
			}
			m := del
			if ins < m {
				m = ins
			}
			if match < m {
				m = match
			}
			fd[row+off] = m
			if tt {
				dv.set(n1, n2, m)
			}
		}
	}
}
