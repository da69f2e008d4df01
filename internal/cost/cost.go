// Package cost defines node edit cost models for the tree edit distance
// and the compiled per-tree-pair form the algorithms consume.
//
// The paper (Section 2.2) uses three edit operations with costs cd(v)
// for deleting node v, ci(w) for inserting node w and cr(v, w) for
// renaming v's label to w's. The experiments use the unit cost model:
// cd = ci = 1 and cr = 0 if the labels match, 1 otherwise.
package cost

import (
	"math"

	"repro/internal/tree"
)

// Model assigns costs to the three edit operations based on node labels.
// Implementations must return non-negative values; Rename(a, a) should be
// 0 for the distance to satisfy the identity axiom.
//
// A batch engine calls a model's methods from several goroutines at
// once: its workers price the trees they prepare (PrepareAll, and so a
// corpus's Warm), request handlers prepare queries concurrently, and
// join and top-k workers price renames concurrently. Implementations
// must be safe for concurrent use; a pure function of its labels is.
type Model interface {
	// Delete returns the cost of deleting a node labeled label.
	Delete(label string) float64
	// Insert returns the cost of inserting a node labeled label.
	Insert(label string) float64
	// Rename returns the cost of renaming label a to label b.
	Rename(a, b string) float64
}

// Unit is the standard unit cost model used throughout the paper's
// experiments: deletions and insertions cost 1, renames cost 0 when the
// labels are equal and 1 otherwise.
type Unit struct{}

func (Unit) Delete(string) float64 { return 1 }
func (Unit) Insert(string) float64 { return 1 }
func (Unit) Rename(a, b string) float64 {
	if a == b {
		return 0
	}
	return 1
}

// Weighted scales the three operations by fixed weights. The rename
// weight is charged only when labels differ.
type Weighted struct {
	DeleteW float64
	InsertW float64
	RenameW float64
}

func (w Weighted) Delete(string) float64 { return w.DeleteW }
func (w Weighted) Insert(string) float64 { return w.InsertW }
func (w Weighted) Rename(a, b string) float64 {
	if a == b {
		return 0
	}
	return w.RenameW
}

// Func adapts three closures to the Model interface. Like every Model,
// the closures may be called from several goroutines at once.
type Func struct {
	DeleteF func(string) float64
	InsertF func(string) float64
	RenameF func(a, b string) float64
}

func (f Func) Delete(l string) float64    { return f.DeleteF(l) }
func (f Func) Insert(l string) float64    { return f.InsertF(l) }
func (f Func) Rename(a, b string) float64 { return f.RenameF(a, b) }

// Compiled is the per-tree-pair compiled form of a cost model: delete and
// insert costs are precomputed per node, labels of both trees are ids on
// one label table so the hot rename path compares ints, and rename costs
// between distinct labels go through a small memo keyed by the label-id
// pair. Every Compiled carries its transposed form (Transpose).
//
// Node indices follow the postorder ids of the two trees (F = left tree,
// G = right tree).
type Compiled struct {
	Del []float64 // Del[v]: cost of deleting F-node v
	Ins []float64 // Ins[w]: cost of inserting G-node w
	FID []int32   // label id per F-node
	GID []int32   // label id per G-node

	labels []string // id -> label
	unit   bool
	model  Model
	memo   map[[2]int32]float64
	trans  *Compiled // the transposed form (see PairPrepared)
}

// Compile precomputes per-node delete and insert costs of model m for the
// pair (f, g), with the labels of both trees interned into one fresh label
// table so that equal labels share an id.
func Compile(m Model, f, g *tree.Tree) *Compiled {
	tab := tree.NewLabelTable()
	return PairPrepared(m, CompileTree(m, f, tab), CompileTree(m, g, tab))
}

// IsUnit reports whether the compiled model is the unit cost model, whose
// float64 arithmetic is exact (all values are small integers). Bounded
// GTED uses this to decide whether cutoff comparisons need a rounding pad.
func (c *Compiled) IsUnit() bool { return c.unit }

// Ren returns the rename cost between F-node v and G-node w.
func (c *Compiled) Ren(v, w int) float64 {
	a, b := c.FID[v], c.GID[w]
	if c.unit {
		if a == b {
			return 0
		}
		return 1
	}
	return c.renByID(a, b)
}

// renByID prices a rename by interned label ids through the memo.
// Identical labels still consult the model: a custom model may charge a
// nonzero self-rename (which breaks the identity axiom but is the model
// author's choice).
func (c *Compiled) renByID(a, b int32) float64 {
	key := [2]int32{a, b}
	if r, ok := c.memo[key]; ok {
		return r
	}
	r := c.model.Rename(c.labels[a], c.labels[b])
	c.memo[key] = r
	return r
}

// MinRename returns the cheapest rename from any label of F to any label
// of G: a lower bound on every single rename an edit script of the pair
// can make. The root check of bounded GTED prices every matched node at
// least this much, since under a model that charges every available
// rename r > 0 matching is no longer free. It costs one model call per
// distinct (F label, G label) pair, memoized for the DP that follows.
// Under the unit model it returns 0 without looking: the floor there is
// 0 as soon as the trees share a label, and bounded GTED does not ask.
func (c *Compiled) MinRename() float64 {
	if c.unit {
		return 0
	}
	gids := distinctIDs(c.GID)
	m := math.Inf(1)
	for _, a := range distinctIDs(c.FID) {
		for _, b := range gids {
			m = min(m, c.renByID(a, b))
		}
	}
	return m
}

// distinctIDs returns the distinct label ids of ids in first-seen order.
func distinctIDs(ids []int32) []int32 {
	seen := make(map[int32]struct{}, 16)
	var out []int32
	for _, id := range ids {
		if _, ok := seen[id]; !ok {
			seen[id] = struct{}{}
			out = append(out, id)
		}
	}
	return out
}

// Transpose returns the compiled costs for the swapped direction: the
// distance δ(G, F) with the transposed model equals δ(F, G) with the
// original model. An edit script from F to G maps to the reverse script
// from G to F, so deleting a G-node in the transposed direction costs
// what inserting it cost originally, inserting an F-node costs its
// original deletion, and renames swap their arguments. GTED uses the
// transposed form when the strategy decomposes the right-hand tree.
func (c *Compiled) Transpose() *Compiled { return c.trans }

// transposed swaps the rename arguments; deleting in the transposed
// direction is inserting in the original one and vice versa.
type transposed struct{ m Model }

func (t transposed) Delete(l string) float64    { return t.m.Insert(l) }
func (t transposed) Insert(l string) float64    { return t.m.Delete(l) }
func (t transposed) Rename(a, b string) float64 { return t.m.Rename(b, a) }
