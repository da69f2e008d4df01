package bounds

import (
	"math"

	"repro/internal/tree"
)

// Constrained computes the ordered constrained edit distance between f
// and g under the unit cost model (Zhang-style: mappings are restricted
// so that the children forests of matched nodes align as sequences and
// a forest may otherwise only descend into a single subtree). Every
// constrained mapping is a valid edit mapping, so the result is an upper
// bound on the tree edit distance; for many practical tree pairs the two
// coincide. Runtime is O(|f|·|g|) (the children-sequence DPs telescope),
// space O(|f|·|g|).
//
// Constrained is ConstrainedBelow with an infinite threshold: the band
// then spans every subtree pair and the value is always exact.
func Constrained(f, g *tree.Tree) float64 {
	d, _ := ConstrainedBelow(f, g, math.Inf(1), nil)
	return d
}

// ConstrainedScratch is the reusable memory of ConstrainedBelow: with a
// warm scratch a call allocates nothing. The zero value is ready to use;
// a scratch serves one call at a time.
type ConstrainedScratch struct {
	byG   []int32 // G's nodes in ascending (size, postorder) order
	rankG []int32 // rankG[w]: w's position in byG
	first []int32 // first[s]: the first position in byG whose size is ≥ s
	next  []int32 // counting-sort cursors
	rows  []bandRow
	d, df []float64
	seq   []float64
}

// bandRow is row v of the banded DP: the cells (v, byG[lo+i]) for i in
// [0, n), stored at d[off+i] and df[off+i].
type bandRow struct{ lo, n, off int32 }

// Shrink drops the scratch's DP buffers if together they exceed maxCells
// cells, so a pooled scratch does not keep the memory of one huge pair.
func (s *ConstrainedScratch) Shrink(maxCells int) {
	if cap(s.d)+cap(s.df)+cap(s.seq) > maxCells {
		s.d, s.df, s.seq = nil, nil, nil
	}
}

// ConstrainedBelow decides whether the constrained distance between f and
// g is below tau, doing work only where it can be. It returns (d, true)
// with d the exact constrained distance iff that distance is < tau;
// otherwise (d, false) with d ≥ tau still an upper bound on the
// constrained distance (possibly +Inf). s may be nil.
//
// The DP is banded by tau. The constrained distance of two subtrees, and
// of their children forests, is at least their size difference, so a
// cell (v, w) with |size(v) − size(w)| ≥ tau is never computed and reads
// as +Inf. Row v visits only the nodes of g whose size lies in
// (size(v) − tau, size(v) + tau), in ascending (size, postorder) order,
// which computes every child before its parent. Every term of the
// recurrence is a sum of non-negative integers and the cells it reads,
// so a cell whose true value is < tau reads only cells below tau — all
// inside the band — and is computed exactly; a cell whose true value is
// ≥ tau reads ≥ tau. With tau = +Inf the band is everything.
func ConstrainedBelow(f, g *tree.Tree, tau float64, s *ConstrainedScratch) (float64, bool) {
	nf, ng := f.Len(), g.Len()
	inf := math.Inf(1)
	if !(math.Abs(float64(nf-ng)) < tau) {
		return inf, false // the roots' own cell lies outside the band
	}
	if s == nil {
		s = new(ConstrainedScratch)
	}
	// k is the largest size difference below tau.
	k := max(nf, ng)
	if tau <= float64(k) {
		k = int(math.Ceil(tau)) - 1
	}

	// Counting-sort g's nodes by (size, postorder).
	first := grow(&s.first, ng+2)
	clear(first)
	for w := 0; w < ng; w++ {
		first[g.Size(w)+1]++
	}
	for z := 1; z < len(first); z++ {
		first[z] += first[z-1]
	}
	next := grow(&s.next, ng+2)
	copy(next, first)
	byG, rankG := grow(&s.byG, ng), grow(&s.rankG, ng)
	for w := 0; w < ng; w++ {
		r := next[g.Size(w)]
		next[g.Size(w)]++
		byG[r], rankG[w] = int32(w), r
	}

	// Lay out the rows.
	rows := grow(&s.rows, nf)
	cells := 0
	for v := 0; v < nf; v++ {
		sv := f.Size(v)
		l := first[min(max(sv-k, 1), ng+1)]
		h := max(first[min(sv+k, ng)+1], l)
		rows[v] = bandRow{lo: l, n: h - l, off: int32(cells)}
		cells += int(h - l)
	}
	// d: constrained distance between subtrees F_v and G_w.
	// df: constrained distance between their children forests.
	d, df := grow(&s.d, cells), grow(&s.df, cells)
	// read returns cell (v, w) of m, +Inf outside row v's band.
	read := func(m []float64, v, w int) float64 {
		row := rows[v]
		i := rankG[w] - row.lo
		if uint32(i) >= uint32(row.n) {
			return inf
		}
		return m[row.off+i]
	}

	maxDegF, maxDegG := 0, 0
	for v := 0; v < nf; v++ {
		maxDegF = max(maxDegF, f.NumChildren(v))
	}
	for w := 0; w < ng; w++ {
		maxDegG = max(maxDegG, g.NumChildren(w))
	}
	seq := grow(&s.seq, (maxDegF+1)*(maxDegG+1))

	for v := 0; v < nf; v++ {
		kv := f.Children(v)
		sv := float64(f.Size(v))
		row := rows[v]
		for c := int32(0); c < row.n; c++ {
			w := int(byG[row.lo+c])
			kw := g.Children(w)
			sw := float64(g.Size(w))

			// ---- forest distance between the children forests ----
			var fd float64
			switch {
			case len(kv) == 0 && len(kw) == 0:
				fd = 0
			case len(kv) == 0:
				fd = sw - 1
			case len(kw) == 0:
				fd = sv - 1
			default:
				// (iii) sequence alignment of the child subtrees with
				// whole-tree constrained distances.
				wdt := len(kw) + 1
				seq[0] = 0
				for j := 1; j <= len(kw); j++ {
					seq[j] = seq[j-1] + float64(g.Size(kw[j-1]))
				}
				for i := 1; i <= len(kv); i++ {
					ai := kv[i-1]
					del := float64(f.Size(ai))
					seq[i*wdt] = seq[(i-1)*wdt] + del
					for j := 1; j <= len(kw); j++ {
						m := seq[(i-1)*wdt+j-1] + read(d, ai, kw[j-1])
						if x := seq[(i-1)*wdt+j] + del; x < m {
							m = x
						}
						if x := seq[i*wdt+j-1] + float64(g.Size(kw[j-1])); x < m {
							m = x
						}
						seq[i*wdt+j] = m
					}
				}
				fd = seq[len(kv)*wdt+len(kw)]
				// (i) everything descends into one child's subtree
				// forest on the G side; the rest of G is inserted.
				for _, bj := range kw {
					if x := read(df, v, bj) + sw - float64(g.Size(bj)); x < fd {
						fd = x
					}
				}
				// (ii) symmetric on the F side.
				for _, ai := range kv {
					if x := read(df, ai, w) + sv - float64(f.Size(ai)); x < fd {
						fd = x
					}
				}
			}
			df[row.off+c] = fd

			// ---- tree distance ----
			best := fd + 1
			if f.Label(v) == g.Label(w) {
				best = fd
			}
			// Delete v's root and map G_w into one child subtree.
			for _, ai := range kv {
				if x := read(d, ai, w) + sv - float64(f.Size(ai)); x < best {
					best = x
				}
			}
			// Insert w's root and map F_v into one child subtree.
			for _, bj := range kw {
				if x := read(d, v, bj) + sw - float64(g.Size(bj)); x < best {
					best = x
				}
			}
			d[row.off+c] = best
		}
	}
	dist := read(d, nf-1, ng-1)
	return dist, dist < tau
}

// grow returns (*buf)[:n], reallocating only when the capacity is short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
