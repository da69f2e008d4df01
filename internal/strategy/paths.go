// Package strategy implements the path-strategy machinery of the RTED
// paper: root-leaf paths (Section 4.1), LRH strategies (Section 4.2), the
// closed-form decomposition counts of Lemmas 1–3 (Section 5.2), analytic
// subproblem counting with the cost formula (Section 5.3), the baseline
// O(n³) optimal-strategy algorithm (Section 6.1) and the O(n²)
// OptStrategy algorithm (Section 6.2, Algorithm 2).
//
// OptStrategy minimizes a Price: integer weights per single-path call,
// per ΔL/ΔR subproblem and per ΔI subproblem. Opt uses CountPrice,
// (0, 1, 1), which is the paper's count of relevant subproblems, so it
// returns the paper's strategy bit for bit. The batch engine uses
// TimePrice, (16, 1, 2) in units of one ΔL/ΔR subproblem, through
// OptScratch.Opt. That price was calibrated by
// BenchmarkStrategyPrice in package batch, which fits the engine's run
// times under six strategies to the three terms. The paper's count
// assumes every subproblem costs the same and a call costs nothing; on
// the engine a call costs about 16 ΔL/ΔR subproblems and a ΔI
// subproblem about two. The priced strategy stays robust: every call
// evaluates at least one subproblem, so under any price the priced
// optimum has at most (Call + max(LR, I)) / min(LR, I) times the
// subproblems of the paper's optimum, 18 for TimePrice (see Price).
package strategy

import "repro/internal/tree"

// PathType identifies one of the three root-leaf path families of an LRH
// strategy.
type PathType uint8

const (
	// Heavy follows the child with the largest subtree (ties broken by
	// the rightmost child; see tree.HeavyChild).
	Heavy PathType = iota
	// Left follows the leftmost child.
	Left
	// Right follows the rightmost child.
	Right
)

func (p PathType) String() string {
	switch p {
	case Heavy:
		return "heavy"
	case Left:
		return "left"
	case Right:
		return "right"
	}
	return "invalid"
}

// Choice encodes which tree a strategy decomposes and with which path
// type. The numeric order of the constants is exactly the tie-break order
// of the paper's cost formula (Algorithm 2 lines 7–12), so "smallest
// Choice wins ties" reproduces the paper's choices.
type Choice uint8

const (
	// HeavyF decomposes the left tree along its heavy path.
	HeavyF Choice = iota
	// HeavyG decomposes the right tree along its heavy path.
	HeavyG
	// LeftF decomposes the left tree along its left path.
	LeftF
	// LeftG decomposes the right tree along its left path.
	LeftG
	// RightF decomposes the left tree along its right path.
	RightF
	// RightG decomposes the right tree along its right path.
	RightG

	numChoices = 6
)

// InG reports whether the choice decomposes the right-hand tree.
func (c Choice) InG() bool { return c&1 == 1 }

// Type returns the path family of the choice.
func (c Choice) Type() PathType { return PathType(c >> 1) }

func (c Choice) String() string {
	side := "F"
	if c.InG() {
		side = "G"
	}
	return c.Type().String() + "-" + side
}

// MakeChoice builds a Choice from a path type and a side.
func MakeChoice(t PathType, inG bool) Choice {
	c := Choice(t) << 1
	if inG {
		c |= 1
	}
	return c
}

// PathChild returns the child of node i that continues a path of type
// pt, or -1 if i is a leaf.
func PathChild(t *tree.Tree, i int, pt PathType) int {
	return pathChild(t, i, pt)
}

// pathChild returns the child of node i that continues a path of type pt,
// or -1 if i is a leaf.
func pathChild(t *tree.Tree, i int, pt PathType) int {
	switch pt {
	case Left:
		return t.LeftChild(i)
	case Right:
		return t.RightChild(i)
	default:
		return t.HeavyChild(i)
	}
}

// PathNodes returns the nodes of the root-leaf path of type pt starting
// at v, from v down to the leaf.
func PathNodes(t *tree.Tree, v int, pt PathType) []int {
	var nodes []int
	for u := v; u != -1; u = pathChild(t, u, pt) {
		nodes = append(nodes, u)
	}
	return nodes
}

// OnPath reports whether node x lies on the path of type pt rooted at v.
// x must be inside the subtree of v.
func OnPath(t *tree.Tree, v, x int, pt PathType) bool {
	for u := v; u != -1; u = pathChild(t, u, pt) {
		if u == x {
			return true
		}
		// Paths descend; once below x's postorder range we can stop.
		if !t.InSubtree(x, u) {
			return false
		}
	}
	return false
}

// ForEachHanging calls fn with the root of every relevant subtree of F_v
// with respect to the path of type pt (the subtrees hanging off the
// path), in root-to-leaf, left-to-right order.
func ForEachHanging(t *tree.Tree, v int, pt PathType, fn func(root int)) {
	for u := v; u != -1; {
		next := pathChild(t, u, pt)
		for _, c := range t.Children(u) {
			if c != next {
				fn(c)
			}
		}
		u = next
	}
}

// HangingSubtrees returns the roots collected by ForEachHanging.
func HangingSubtrees(t *tree.Tree, v int, pt PathType) []int {
	var roots []int
	ForEachHanging(t, v, pt, func(r int) { roots = append(roots, r) })
	return roots
}
