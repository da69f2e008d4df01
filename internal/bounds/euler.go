package bounds

import "slices"

// EulerScratch is the reusable memory of SubtreeEulerLower: the query's
// Euler string, which SetQuery builds once per scan, and the data tree's
// Euler string and DP row, which every call rebuilds. Its memory is
// linear in the trees' sizes, and with a warm scratch a call allocates
// nothing. The zero value is ready for SetQuery; a scratch serves one
// scan at a time.
type EulerScratch struct {
	query, data []int32
	row         []int32
}

// SetQuery makes q the query of every following SubtreeEulerLower call
// on s.
func (s *EulerScratch) SetQuery(q *Profile) { s.query = eulerString(s.query, q) }

// SubtreeEulerLower returns a lower bound on the unit-cost distance from
// the query of the last SetQuery to every subtree of d at once: half the
// smallest string edit distance between the query's Euler string and any
// substring of d's.
//
// A tree's Euler string lists, in one depth-first walk, an open token
// (the node's label id) on entering each node and a close token (−id−1)
// on leaving it. One node edit changes it by at most two token edits — a
// rename substitutes both of the node's tokens, a delete or an insert
// removes or adds both — so half the strings' edit distance is at most
// the trees' (Akutsu, Fukagawa and Takasu, "Approximating tree edit
// distance through string edit distance"). A subtree's Euler string is a
// contiguous substring of its tree's, which bounds every subtree at once;
// the empty substring keeps the bound at or below |Q|.
//
// The minimum runs Sellers' approximate-substring DP: row i holds, for
// every end position in d's string, the least edit distance between the
// query string's first i tokens and a substring ending there. A row's
// minimum never decreases with i — dropping a query token from an
// alignment never raises its cost — so once it exceeds 2·tau the call
// stops and returns it halved: above tau, and still a lower bound.
// Otherwise the value is the full bound. Either way it exceeds tau
// exactly when the full bound does; tau = +Inf always computes the full
// bound.
func (s *EulerScratch) SubtreeEulerLower(d *Profile, tau float64) float64 {
	s.data = eulerString(s.data, d)
	text := s.data
	s.row = slices.Grow(s.row[:0], len(text)+1)[:len(text)+1]
	row := s.row
	clear(row) // row 0: the empty prefix matches an empty substring anywhere
	best := int32(0)
	for i, qi := range s.query {
		// row[0] is the empty substring ending before the first token;
		// diag and left carry the previous row's cell (j−1) and this
		// row's cell (j−1) along the row.
		diag, left := row[0], int32(i+1)
		row[0], best = left, left
		cells := row[1:][:len(text)]
		for j, tj := range text {
			up := cells[j]
			c := diag
			if qi != tj {
				c++
			}
			c = min(c, up+1, left+1)
			cells[j], diag, left = c, up, c
			best = min(best, c)
		}
		if float64(best) > 2*tau {
			break
		}
	}
	return float64(best) / 2
}

// eulerString writes p's Euler string into dst, reusing its memory, and
// returns it. Opens arrive in preorder and closes in postorder, so before
// node v's open token stand pre(v) opens and the closes of the lml(v)
// nodes that precede v's subtree in postorder; before its close token
// stand the pre(v) + size(v) opens of everything up to the end of its
// subtree and the closes of the v nodes before it in postorder.
func eulerString(dst []int32, p *Profile) []int32 {
	t := p.t
	dst = slices.Grow(dst[:0], 2*len(p.post))[:2*len(p.post)]
	for v, id := range p.post {
		pre := t.Pre(v)
		dst[pre+t.SubtreeFirst(v)] = id
		dst[pre+t.Size(v)+v] = -id - 1
	}
	return dst
}
