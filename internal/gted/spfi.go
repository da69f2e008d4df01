package gted

import (
	"math"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/tree"
)

// This file implements ΔI, the single-path function for arbitrary
// root-leaf paths (Demaine et al.'s "compute period" in the paper's
// terminology). It computes δ(F_x, G_y) for every x on the given path of
// F and every subtree G_y of G, evaluating exactly
// |F| × |A(G)| relevant subproblems (Lemma 4).
//
// F-side: the relevant subforests of F w.r.t. the path form the
// deterministic removal chain of Definition 3 (remove the root, strip
// off-path subtrees left-to-right node by node, then right-to-left, then
// recurse into the next path subtree). State t of the chain is F minus
// its first t removed nodes; the possible transitions are "remove one
// node" (t → t+1) and "remove the whole leftmost/rightmost subtree"
// (t → t + size(subtree)).
//
// G-side: a forest of the full decomposition A(G) is exactly a node set
// {x : pre(x) ≥ a ∧ post(x) ≤ b} (left removals erase a preorder prefix,
// right removals a postorder suffix), so forests are indexed by local
// (a, b) pairs. Storage keeps, for every local preorder position a, the
// contiguous range b ∈ [post(node at a), size) — which enumerates every
// canonical forest plus a thin band of duplicate cells (same node set,
// larger b) that are filled by O(1) copies and not counted.
//
// Rows (one per chain state, |A(G)| cells each) are produced bottom-up
// and released by reference counting once no later state reads them.
//
// ΔI rows stay full-width in bounded runs too: a row is indexed by the
// (a, b) decomposition cells, whose admissible band is a different
// contiguous span per la-run, so compressing it would need a per-(row,
// la) offset table of the same order as the savings. Band-compressed
// storage therefore applies to the rectangular ΔL/ΔR rows only; ΔI
// contributes its full rows to Stats.RowCells and benefits from the
// per-region band pricing below.

// chain is the Definition 3 removal sequence for one subtree and path.
type chain struct {
	rem     []int32   // node removed at state t (postorder id in T1)
	size    []int32   // subtree size of rem[t]; the subtree-jump target is t+size
	isTree  []bool    // state t is the whole subtree rooted at rem[t]
	dirR    []bool    // removal direction at state t (true = rightmost)
	delCost []float64 // delCost[t] = total delete cost of state t's forest; len s1+1
	refs    []int32   // number of later states that read row t; len s1+1
}

// build (re)fills ch for the subtree of t rooted at v, reusing the
// backing arrays from previous calls.
func (ch *chain) build(t *tree.Tree, v int, pt strategy.PathType, del []float64) {
	s1 := t.Size(v)
	ch.rem = growI32(&ch.rem, s1)
	ch.size = growI32(&ch.size, s1)
	ch.isTree = growBool(&ch.isTree, s1)
	ch.dirR = growBool(&ch.dirR, s1)
	ch.delCost = growF64(&ch.delCost, s1+1)
	ch.refs = growI32(&ch.refs, s1+1)
	for i := 0; i < s1; i++ {
		ch.isTree[i] = false
		ch.dirR[i] = false
		ch.refs[i] = 0
	}
	ch.refs[s1] = 0
	ch.delCost[s1] = 0
	pos := 0
	for u := v; u != -1; u = strategy.PathChild(t, u, pt) {
		// The whole subtree F_u is a chain state; removing its root u
		// starts the decomposition of its child forest.
		ch.rem[pos] = int32(u)
		ch.size[pos] = int32(t.Size(u))
		ch.isTree[pos] = true
		ch.dirR[pos] = true
		pos++
		next := strategy.PathChild(t, u, pt)
		if next == -1 {
			break
		}
		kids := t.Children(u)
		// Left strip: subtrees left of the path child vanish node by
		// node in preorder (each removal takes the leftmost root).
		for _, c := range kids {
			if c == next {
				break
			}
			for p := t.Pre(c); p < t.Pre(c)+t.Size(c); p++ {
				x := t.ByPre(p)
				ch.rem[pos] = int32(x)
				ch.size[pos] = int32(t.Size(x))
				pos++
			}
		}
		// Right strip: subtrees right of the path child vanish in
		// reverse postorder (each removal takes the rightmost root).
		for i := len(kids) - 1; ; i-- {
			c := kids[i]
			if c == next {
				break
			}
			for x := c; x >= t.SubtreeFirst(c); x-- {
				ch.rem[pos] = int32(x)
				ch.size[pos] = int32(t.Size(x))
				ch.dirR[pos] = true
				pos++
			}
		}
	}
	if pos != s1 {
		panic("gted: chain construction dropped nodes")
	}
	for i := s1 - 1; i >= 0; i-- {
		ch.delCost[i] = ch.delCost[i+1] + del[ch.rem[i]]
	}
	for i := 0; i < s1; i++ {
		ch.refs[i+1]++
		if !ch.isTree[i] {
			ch.refs[i+int(ch.size[i])]++
		}
	}
}

// gside indexes the full decomposition A(G_w) of one subtree. All
// coordinates are subtree-local: local postorder lp ∈ [0, s2) maps to the
// global postorder id g0+lp, local preorder la likewise offsets the
// subtree root's preorder.
type gside struct {
	s2      int
	g0      int       // global postorder id of the subtree's first node
	lPre    []int32   // local post -> local pre
	lByPre  []int32   // local pre -> local post (also the minimum valid b per a)
	sz      []int32   // local post -> subtree size
	off     []int32   // la -> storage offset of cell (la, minB(la)); len s2+1
	szCell  []int32   // per cell: forest node count
	insRow  []float64 // per cell: total insert cost of the forest (= δ(∅, g))
	prefIns []float64 // local-postorder insert-cost prefix sums; len s2+1
	canon   int64     // number of canonical cells = |A(G_w)|
}

// build (re)fills gs for the subtree of t rooted at w, reusing the
// backing arrays from previous calls.
func (gs *gside) build(t *tree.Tree, w int, ins []float64) {
	s2 := t.Size(w)
	g0 := w - s2 + 1
	preW := t.Pre(w)
	gs.s2 = s2
	gs.g0 = g0
	gs.canon = 0
	gs.lPre = growI32(&gs.lPre, s2)
	gs.lByPre = growI32(&gs.lByPre, s2)
	gs.sz = growI32(&gs.sz, s2)
	gs.off = growI32(&gs.off, s2+1)
	for lp := 0; lp < s2; lp++ {
		gp := g0 + lp
		la := t.Pre(gp) - preW
		gs.lPre[lp] = int32(la)
		gs.lByPre[la] = int32(lp)
		gs.sz[lp] = int32(t.Size(gp))
	}
	// Subtree insert-cost sums via local-postorder prefix sums.
	prefIns := growF64(&gs.prefIns, s2+1)
	prefIns[0] = 0
	for lp := 0; lp < s2; lp++ {
		prefIns[lp+1] = prefIns[lp] + ins[g0+lp]
	}
	gs.off[0] = 0
	for la := 0; la < s2; la++ {
		gs.off[la+1] = gs.off[la] + int32(s2) - gs.lByPre[la]
	}
	rowLen := int(gs.off[s2])
	gs.szCell = growI32(&gs.szCell, rowLen)
	gs.insRow = growF64(&gs.insRow, rowLen)
	for la := 0; la < s2; la++ {
		n0 := int(gs.lByPre[la]) // local post of the node at preorder la
		base := int(gs.off[la])
		gs.szCell[base] = gs.sz[n0]
		gs.insRow[base] = prefIns[n0+1] - prefIns[n0-int(gs.sz[n0])+1]
		gs.canon++
		for lb := n0 + 1; lb < s2; lb++ {
			c := base + lb - n0
			if int(gs.lPre[lb]) >= la {
				gs.szCell[c] = gs.szCell[c-1] + 1
				gs.insRow[c] = gs.insRow[c-1] + ins[g0+lb]
				gs.canon++
			} else {
				gs.szCell[c] = gs.szCell[c-1]
				gs.insRow[c] = gs.insRow[c-1]
			}
		}
	}
}

// cell returns the storage index of the forest {lpre ≥ la, lpost ≤ lb},
// canonicalizing la first (skipping preorder positions whose nodes are
// excluded by the b bound). The forest must be non-empty.
func (gs *gside) cell(la, lb int) int {
	for int(gs.lByPre[la]) > lb {
		la++
	}
	return int(gs.off[la]) + lb - int(gs.lByPre[la])
}

// spfI runs the ΔI DP for the subtree of t1 rooted at v1, decomposed
// along its path of type pt, against the subtree of t2 rooted at v2.
// Precondition: the distance matrix holds δ(T1_x, T2_y) for every x in a
// subtree hanging off the path and every y in T2_v2. Postcondition: it
// additionally holds δ(T1_x, T2_y) for every x ON the path. In bounded
// mode (tcut finite) cells whose forest sizes differ by more than the
// cheapest operations allow under tcut are skipped, as in spfLR.
func (r *Runner) spfI(t1 *tree.Tree, v1 int, t2 *tree.Tree, v2 int, pt strategy.PathType, cm *cost.Compiled, dv dview, tcut float64) {
	ch := &r.ar.ch
	ch.build(t1, v1, pt, cm.Del)
	gs := &r.ar.gs
	gs.build(t2, v2, cm.Ins)
	s1, s2 := t1.Size(v1), gs.s2
	rowLen := len(gs.szCell)

	// Chain-state rows come from the arena: the rows slice is grown in
	// place (entries beyond the previous length are nil by the cleanup
	// invariant below), and row buffers cycle through the shared pool.
	if cap(r.ar.rows) < s1+1 {
		grown := make([][]float64, s1+1)
		copy(grown, r.ar.rows)
		r.ar.rows = grown
	}
	rows := r.ar.rows[:s1+1]
	alloc := func() []float64 {
		if n := len(r.ar.rowPool); n > 0 {
			b := r.ar.rowPool[n-1]
			r.ar.rowPool = r.ar.rowPool[:n-1]
			if cap(b) >= rowLen {
				return b[:rowLen]
			}
		}
		return make([]float64, rowLen)
	}
	release := func(t int) {
		if t >= s1 {
			return // the empty state is virtual (insRow/delCost)
		}
		ch.refs[t]--
		if ch.refs[t] == 0 {
			r.ar.rowPool = append(r.ar.rowPool, rows[t])
			rows[t] = nil
			r.liveRows--
		}
	}
	// at returns δ(F_t', G-forest(la, lb)) for a forest of known size.
	at := func(tt, la, lb, gsz int) float64 {
		if gsz == 0 {
			return ch.delCost[tt]
		}
		c := gs.cell(la, lb)
		if tt == s1 {
			return gs.insRow[c]
		}
		return rows[tt][c]
	}

	// Band pruning setup, as in spfLR: for a fixed chain state the
	// admissible G-forest sizes form one interval, and within one la-run
	// of the storage the forest size is nondecreasing in lb — so the
	// admissible cells are a contiguous span found by binary search, and
	// the spans outside are skipped (and counted) without per-cell tests.
	// Skipped cells hold stale scratch; atB guards every read that can
	// land on one and prices it +Inf, sound because an out-of-band forest
	// pair needs more than maxD deletions or maxI insertions (SetCutoff).
	bounded := r.bounded && !math.IsInf(tcut, 1)
	var maxD, maxI int
	if bounded {
		oc := r.opCostsFor(cm)
		bounded = oc.dmin > 0 || oc.imin > 0
		tcut += r.cutPad(tcut)
		// Every deleted node lies in T1's subtree at v1 and every inserted
		// one in T2's subtree at v2, so the band widths are priced at
		// those regions' own floors instead of the global minima.
		dminR, iminR := r.regionMins(cm, v1, v2)
		maxD, maxI = bandWidth(tcut, dminR), bandWidth(tcut, iminR)
		// Widths beyond any possible size difference act identically;
		// capping keeps the index arithmetic comfortably in range.
		if n := t1.Len() + t2.Len(); maxD > n {
			maxD = n
		}
		if n := t1.Len() + t2.Len(); maxI > n {
			maxI = n
		}
	}
	inf := math.Inf(1)
	inBand := func(tt, gsz int) bool {
		d := (s1 - tt) - gsz
		return d <= maxD && -d <= maxI
	}
	atB := func(tt, la, lb, gsz int) float64 {
		if !inBand(tt, gsz) {
			return inf
		}
		return at(tt, la, lb, gsz)
	}

	for t := s1 - 1; t >= 0; t-- {
		row := alloc()
		rows[t] = row
		r.stats.RowCells += int64(rowLen)
		r.liveRows++
		if r.liveRows > r.stats.MaxLiveRows {
			r.stats.MaxLiveRows = r.liveRows
		}
		u := int(ch.rem[t])
		uSz := int(ch.size[t])
		isT := ch.isTree[t]
		dirR := ch.dirR[t]
		jump := t + uSz
		delU := cm.Del[u]

		if bounded {
			fSz := s1 - t // F-side forest size of this chain state
			loSz, hiSz := fSz-maxD, fSz+maxI
			for la := s2 - 1; la >= 0; la-- {
				n0 := int(gs.lByPre[la])
				base := int(gs.off[la])
				n0sz := int(gs.sz[n0])
				n0g := gs.g0 + n0
				end := base + (s2 - 1 - n0) // last storage cell of the run
				// Canonical cells in [base..c] number szCell[c]−n0sz+1
				// (the base cell plus one per size increment); that and
				// the monotone size column make span accounting O(log).
				cLo := base
				if int(gs.szCell[base]) < loSz {
					l, h := base, end+1 // first cell with szCell ≥ loSz
					for l < h {
						m := int(uint(l+h) >> 1)
						if int(gs.szCell[m]) < loSz {
							l = m + 1
						} else {
							h = m
						}
					}
					cLo = l
				}
				cHi := end
				if int(gs.szCell[end]) > hiSz {
					l, h := base, end+1 // first cell with szCell > hiSz
					for l < h {
						m := int(uint(l+h) >> 1)
						if int(gs.szCell[m]) <= hiSz {
							l = m + 1
						} else {
							h = m
						}
					}
					cHi = l - 1
				}
				if cLo > end || cHi < base {
					skipped := int64(int(gs.szCell[end]) - n0sz + 1)
					r.stats.PrunedSubproblems += skipped
					r.stats.BandSkippedCells += skipped
					if isT {
						// The base cell — the run's only tree×tree cell —
						// was band-skipped; saturate its matrix entry.
						dv.set(u, n0g, inf)
					}
					continue
				}
				var skipped int64
				if cLo > base {
					skipped += int64(int(gs.szCell[cLo-1]) - n0sz + 1)
					if isT {
						dv.set(u, n0g, inf)
					}
				}
				if cHi < end {
					skipped += int64(int(gs.szCell[end]) - int(gs.szCell[cHi]))
				}
				r.stats.PrunedSubproblems += skipped
				r.stats.BandSkippedCells += skipped
				for c := cLo; c <= cHi; c++ {
					lb := n0 + (c - base)
					if int(gs.lPre[lb]) < la {
						// Duplicate cell: same node set as its predecessor,
						// hence the same forest size — the predecessor is
						// always inside the band too, so the copy is valid.
						row[c] = row[c-1]
						continue
					}
					gSz := int(gs.szCell[c])
					r.stats.Subproblems++
					var val float64
					switch {
					case isT && gSz == n0sz:
						wg := gs.g0 + lb // == n0g: single root
						val = atB(t+1, la, lb, gSz) + delU
						if x := atB(t, la+1, lb-1, gSz-1) + cm.Ins[wg]; x < val {
							val = x
						}
						if x := atB(t+1, la+1, lb-1, gSz-1) + cm.Ren(u, wg); x < val {
							val = x
						}
						dv.set(u, wg, val)
					case isT:
						wl := lb
						wsz := int(gs.sz[wl])
						wg := gs.g0 + wl
						val = atB(t+1, la, lb, gSz) + delU
						if x := atB(t, la, lb-1, gSz-1) + cm.Ins[wg]; x < val {
							val = x
						}
						if x := atB(t, int(gs.lPre[wl]), lb, wsz) + atB(s1, la, lb-wsz, gSz-wsz); x < val {
							val = x
						}
					case dirR:
						wl := lb
						wsz := int(gs.sz[wl])
						wg := gs.g0 + wl
						val = atB(t+1, la, lb, gSz) + delU
						if x := atB(t, la, lb-1, gSz-1) + cm.Ins[wg]; x < val {
							val = x
						}
						if x := dv.get(u, wg) + atB(jump, la, lb-wsz, gSz-wsz); x < val {
							val = x
						}
					default:
						wsz := n0sz
						val = atB(t+1, la, lb, gSz) + delU
						if x := atB(t, la+1, lb, gSz-1) + cm.Ins[n0g]; x < val {
							val = x
						}
						if x := dv.get(u, n0g) + atB(jump, la+wsz, lb, gSz-wsz); x < val {
							val = x
						}
					}
					row[c] = val
				}
			}
			release(t + 1)
			if !isT {
				release(jump)
			}
			continue
		}

		r.stats.Subproblems += gs.canon
		for la := s2 - 1; la >= 0; la-- {
			n0 := int(gs.lByPre[la])
			base := int(gs.off[la])
			n0sz := int(gs.sz[n0])
			n0g := gs.g0 + n0
			for lb := n0; lb < s2; lb++ {
				c := base + lb - n0
				if int(gs.lPre[lb]) < la {
					// Duplicate cell: byPost[lb] is excluded by the a
					// bound, so the node set equals the (la, lb-1) cell.
					row[c] = row[c-1]
					continue
				}
				gSz := int(gs.szCell[c])
				var val float64
				switch {
				case isT && gSz == n0sz:
					// Tree × tree (Figure 2, second case): delete the
					// F-root, insert the G-root, or rename.
					wg := gs.g0 + lb // == n0g: single root
					val = at(t+1, la, lb, gSz) + delU
					if x := at(t, la+1, lb-1, gSz-1) + cm.Ins[wg]; x < val {
						val = x
					}
					if x := at(t+1, la+1, lb-1, gSz-1) + cm.Ren(u, wg); x < val {
						val = x
					}
					dv.set(u, wg, val)
				case isT:
					// Whole path subtree F_u vs a proper forest: the
					// split (3)+(4) pairs F_u with the rightmost G
					// subtree (whose distance this very row computed —
					// it is a smaller subproblem) and leaves δ(∅, rest).
					wl := lb // rightmost root, local post
					wsz := int(gs.sz[wl])
					wg := gs.g0 + wl
					val = at(t+1, la, lb, gSz) + delU
					if x := at(t, la, lb-1, gSz-1) + cm.Ins[wg]; x < val {
						val = x
					}
					if x := at(t, int(gs.lPre[wl]), lb, wsz) + at(s1, la, lb-wsz, gSz-wsz); x < val {
						val = x
					}
				case dirR:
					// Forest state, removing from the right: the removed
					// F-node u roots a whole off-path subtree whose
					// distances to all G subtrees are in the matrix.
					wl := lb
					wsz := int(gs.sz[wl])
					wg := gs.g0 + wl
					val = at(t+1, la, lb, gSz) + delU
					if x := at(t, la, lb-1, gSz-1) + cm.Ins[wg]; x < val {
						val = x
					}
					if x := dv.get(u, wg) + at(jump, la, lb-wsz, gSz-wsz); x < val {
						val = x
					}
				default:
					// Forest state, removing from the left.
					wsz := n0sz
					val = at(t+1, la, lb, gSz) + delU
					if x := at(t, la+1, lb, gSz-1) + cm.Ins[n0g]; x < val {
						val = x
					}
					if x := dv.get(u, n0g) + at(jump, la+wsz, lb, gSz-wsz); x < val {
						val = x
					}
				}
				row[c] = val
			}
		}
		release(t + 1)
		if !isT {
			release(jump)
		}
	}
	// Return surviving rows (row 0, plus any still-referenced rows when
	// s1 == 0 edge cases) to the pool. This restores the invariant that
	// every entry of the arena's rows slice is nil between SPF calls.
	for t, b := range rows {
		if b != nil {
			rows[t] = nil
			r.ar.rowPool = append(r.ar.rowPool, b)
			r.liveRows--
		}
	}
}
