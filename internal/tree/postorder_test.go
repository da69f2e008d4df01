package tree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// refTree is a test-local oracle for the indexed arrays: every quantity
// is defined recursively over the builder form, independently of the
// single-pass construction FromPostorder uses.
type refTree struct {
	post            []*Node // builder node of each postorder id
	id              map[*Node]int
	size, parent    []int
	pre, mpost      []int
	lml, rml, heavy []int
	children        [][]int
	height          int
}

func newRefTree(root *Node) *refTree {
	r := &refTree{id: map[*Node]int{}}
	var postorder func(nd *Node)
	postorder = func(nd *Node) {
		for _, c := range nd.Children {
			postorder(c)
		}
		r.id[nd] = len(r.post)
		r.post = append(r.post, nd)
	}
	postorder(root)
	n := len(r.post)
	r.size, r.parent = make([]int, n), make([]int, n)
	r.pre, r.mpost = make([]int, n), make([]int, n)
	r.lml, r.rml, r.heavy = make([]int, n), make([]int, n), make([]int, n)
	r.children = make([][]int, n)

	var size func(nd *Node) int
	size = func(nd *Node) int {
		s := 1
		for _, c := range nd.Children {
			s += size(c)
		}
		return s
	}
	var leftmost, rightmost func(nd *Node) *Node
	leftmost = func(nd *Node) *Node {
		if len(nd.Children) == 0 {
			return nd
		}
		return leftmost(nd.Children[0])
	}
	rightmost = func(nd *Node) *Node {
		if len(nd.Children) == 0 {
			return nd
		}
		return rightmost(nd.Children[len(nd.Children)-1])
	}
	counter := 0
	var preorder func(nd *Node)
	preorder = func(nd *Node) {
		r.pre[r.id[nd]] = counter
		counter++
		for _, c := range nd.Children {
			preorder(c)
		}
	}
	preorder(root)
	counter = 0
	var mirror func(nd *Node)
	mirror = func(nd *Node) {
		for j := len(nd.Children) - 1; j >= 0; j-- {
			mirror(nd.Children[j])
		}
		r.mpost[r.id[nd]] = counter
		counter++
	}
	mirror(root)
	var depth func(nd *Node, d int)
	depth = func(nd *Node, d int) {
		r.height = max(r.height, d)
		for _, c := range nd.Children {
			depth(c, d+1)
		}
	}
	depth(root, 0)

	r.parent[r.id[root]] = -1
	for v, nd := range r.post {
		r.size[v] = size(nd)
		r.lml[v] = r.id[leftmost(nd)]
		r.rml[v] = r.id[rightmost(nd)]
		r.heavy[v] = -1
		best := 0
		for _, c := range nd.Children {
			r.parent[r.id[c]] = v
			r.children[v] = append(r.children[v], r.id[c])
			// Ties go to the rightmost child: a later child of equal
			// size replaces an earlier one.
			if s := size(c); s >= best {
				best, r.heavy[v] = s, r.id[c]
			}
		}
	}
	return r
}

// check compares every accessor of tr with the oracle.
func (r *refTree) check(tr *Tree) error {
	n := len(r.post)
	if tr.Len() != n || tr.Root() != n-1 {
		return fmt.Errorf("Len %d Root %d, want %d nodes", tr.Len(), tr.Root(), n)
	}
	if tr.Height() != r.height {
		return fmt.Errorf("Height %d, want %d", tr.Height(), r.height)
	}
	if err := tr.Validate(); err != nil {
		return err
	}
	inv := func(name string, got func(int) int, fwd []int) error {
		for v, x := range fwd {
			if got(x) != v {
				return fmt.Errorf("%s(%d) = %d, want %d", name, x, got(x), v)
			}
		}
		return nil
	}
	for v := 0; v < n; v++ {
		for _, c := range []struct {
			name      string
			got, want int
		}{
			{"Size", tr.Size(v), r.size[v]},
			{"Parent", tr.Parent(v), r.parent[v]},
			{"LeftmostLeaf", tr.LeftmostLeaf(v), r.lml[v]},
			{"RightmostLeaf", tr.RightmostLeaf(v), r.rml[v]},
			{"Pre", tr.Pre(v), r.pre[v]},
			{"MPost", tr.MPost(v), r.mpost[v]},
			{"HeavyChild", tr.HeavyChild(v), r.heavy[v]},
			{"NumChildren", tr.NumChildren(v), len(r.children[v])},
		} {
			if c.got != c.want {
				return fmt.Errorf("%s(%d) = %d, want %d", c.name, v, c.got, c.want)
			}
		}
		if tr.Label(v) != r.post[v].Label {
			return fmt.Errorf("Label(%d) = %q, want %q", v, tr.Label(v), r.post[v].Label)
		}
		if got := tr.Children(v); fmt.Sprint(got) != fmt.Sprint(r.children[v]) {
			return fmt.Errorf("Children(%d) = %v, want %v", v, got, r.children[v])
		}
		if len(r.children[v]) > 0 && (tr.LeftChild(v) != r.children[v][0] || tr.RightChild(v) != r.children[v][len(r.children[v])-1]) {
			return fmt.Errorf("LeftChild/RightChild(%d) = %d/%d, want the ends of %v", v, tr.LeftChild(v), tr.RightChild(v), r.children[v])
		}
		if len(r.children[v]) == 0 && (!tr.IsLeaf(v) || tr.LeftChild(v) != -1 || tr.RightChild(v) != -1) {
			return fmt.Errorf("node %d: a leaf of the builder is not a leaf of the tree", v)
		}
	}
	if err := inv("ByPre", tr.ByPre, r.pre); err != nil {
		return err
	}
	return inv("ByMPost", tr.ByMPost, r.mpost)
}

// roundTrips checks that Postorder returns the form the tree was built
// from.
func roundTrips(tr *Tree, f PostorderForm) error {
	got := tr.Postorder()
	if fmt.Sprint(got.ChildCounts) != fmt.Sprint(f.ChildCounts) || fmt.Sprintf("%q", got.Labels) != fmt.Sprintf("%q", f.Labels) {
		return fmt.Errorf("Postorder() = %v, built from %v", got, f)
	}
	return nil
}

// TestFromPostorderRoundTrip checks every accessor of trees built by
// FromPostorder, and by Index, which builds through it, against the
// recursive oracle over the builder form, and that the postorder form
// round-trips.
func TestFromPostorderRoundTrip(t *testing.T) {
	cases := []string{
		"{a}",
		"{a{b}}",
		"{a{b}{c}}",
		"{a{b{d}{e}}{c}}",
		"{f{d{a}{c{b}}}{e}}",
		"{r{a{b{c{d{e}}}}}}",
		"{a{b}{c}{d}}",          // three equal children: the rightmost is heavy
		"{a{b{x}}{c}{d{y}}{e}}", // equal heavy candidates apart
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		cases = append(cases, randomBracket(rng, 1+rng.Intn(60)))
	}
	for _, s := range cases {
		want := MustParseBracket(s)
		ref := newRefTree(want.Builder(want.Root()))
		if err := ref.check(want); err != nil {
			t.Fatalf("%s: Index: %v", s, err)
		}
		form := want.Postorder()
		got, err := FromPostorder(form)
		if err != nil {
			t.Fatalf("%s: FromPostorder: %v", s, err)
		}
		if err := ref.check(got); err != nil {
			t.Fatalf("%s: FromPostorder: %v", s, err)
		}
		if err := roundTrips(got, form); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

func randomBracket(rng *rand.Rand, budget int) string {
	var build func(budget int) string
	labels := []string{"a", "b", "c", "d"}
	build = func(budget int) string {
		s := "{" + labels[rng.Intn(len(labels))]
		budget--
		for budget > 0 && rng.Intn(3) > 0 {
			k := 1 + rng.Intn(budget)
			s += build(k)
			budget -= k
		}
		return s + "}"
	}
	return build(budget)
}

// TestFromPostorderRejectsMalformed pins the error (not panic) contract
// for decoder-fed input.
func TestFromPostorderRejectsMalformed(t *testing.T) {
	cases := []PostorderForm{
		{}, // empty
		{Labels: []string{"a"}, ChildCounts: []int{}},          // length mismatch
		{Labels: []string{"a"}, ChildCounts: []int{1}},         // child from empty stack
		{Labels: []string{"a", "b"}, ChildCounts: []int{0, 0}}, // forest, not a tree
		{Labels: []string{"a", "b"}, ChildCounts: []int{0, 2}}, // too many children
		{Labels: []string{"a"}, ChildCounts: []int{-1}},        // negative count
	}
	for i, f := range cases {
		if _, err := FromPostorder(f); err == nil {
			t.Errorf("case %d: malformed form accepted", i)
		}
	}
	// A form of more than 2^31-1 nodes cannot be built in a test; the
	// check FromPostorder runs before allocating anything is tested
	// directly.
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits: no slice can hold more nodes than an int32 id names")
	}
	n := math.MaxInt32
	if err := checkNodeCount(n); err != nil {
		t.Errorf("%d nodes rejected: %v", n, err)
	}
	if err := checkNodeCount(n + 1); err == nil {
		t.Errorf("%d nodes accepted: int32 ids would wrap", n+1)
	}
}

// FuzzFromPostorder feeds arbitrary child-count arrays to FromPostorder,
// and the same counts with the labels interned into a table shared by
// every input to FromIDs. The oracle decodes the counts into a builder
// tree (each node adopts the last k finished subtrees); either all three
// reject the input, or both trees match the recursive oracle on every
// accessor, every Label(v) of the FromIDs tree round-trips through the
// shared table, and FromPostorder's Postorder() returns the input.
func FuzzFromPostorder(f *testing.F) {
	for _, seed := range [][]byte{
		{}, {0}, {1}, {0, 0}, {0, 1}, {0, 0, 2}, {0, 0, 1}, {0, 0, 3},
		{0, 1, 1, 1}, {0, 0, 0, 3, 0, 2}, {0xff}, {0, 0x80}, {0, 0, 0, 0, 4, 1},
	} {
		f.Add(seed)
	}
	shared := NewLabelTable()
	f.Fuzz(func(t *testing.T, raw []byte) {
		form := PostorderForm{Labels: make([]string, len(raw)), ChildCounts: make([]int, len(raw))}
		for i, b := range raw {
			form.Labels[i] = fmt.Sprintf("n%d", i%5)
			form.ChildCounts[i] = int(int8(b)) // negative counts too
		}
		var stack []*Node
		valid := len(raw) > 0
		for i, k := range form.ChildCounts {
			if k < 0 || k > len(stack) {
				valid = false
				break
			}
			nd := NewNode(form.Labels[i], stack[len(stack)-k:]...)
			nd.Children = append([]*Node(nil), nd.Children...)
			stack = append(stack[:len(stack)-k], nd)
		}
		valid = valid && len(stack) == 1
		tr, err := FromPostorder(form)
		if (err == nil) != valid {
			t.Fatalf("counts %v: FromPostorder error %v, oracle says valid=%v", form.ChildCounts, err, valid)
		}
		ids := shared.Intern(form.Labels...)
		onShared, errIDs := FromIDs(shared, ids, form.ChildCounts)
		if (errIDs == nil) != valid {
			t.Fatalf("counts %v: FromIDs error %v, oracle says valid=%v", form.ChildCounts, errIDs, valid)
		}
		if err != nil {
			return
		}
		ref := newRefTree(stack[0])
		if err := ref.check(tr); err != nil {
			t.Fatalf("counts %v: %v", form.ChildCounts, err)
		}
		if err := roundTrips(tr, form); err != nil {
			t.Fatal(err)
		}
		if err := ref.check(onShared); err != nil {
			t.Fatalf("counts %v on the shared table: %v", form.ChildCounts, err)
		}
		for v, l := range form.Labels {
			if got := onShared.Label(v); got != l || shared.Label(onShared.IDs()[v]) != l {
				t.Fatalf("counts %v: node %d reads label %q through the shared table, want %q", form.ChildCounts, v, got, l)
			}
		}
	})
}

// TestTreeRetainedSize pins what a stored tree keeps resident: a
// 40-node tree built from its label ids on a shared table and its child
// counts, as the snapshot decoder builds it (FromIDs), retains its label
// ids, one allocation of six int32 arrays, the child lists and the
// header: 1,710 bytes. It retained 2,142 while it also stored the mirror
// postorder numbers and their inverse, 2,688 while every tree kept its
// labels as strings, and 5,887 in the layout before that: eleven []int
// arrays, an []int64 and one child slice per internal node. Measured on
// one P with the collector off, as the batch package's byte pins are.
func TestTreeRetainedSize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	form := Index(randomNode(rand.New(rand.NewSource(40)), 40)).Postorder()
	tab := NewLabelTable()
	ids := tab.Intern(form.Labels...)
	const copies = 1000
	keep := make([]*Tree, copies)
	var before, after runtime.MemStats
	// Twice: pooled memory that earlier tests left behind survives one
	// collection in the pools' victim caches.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		// The decoder reads every tree's ids into a slice of its own,
		// which the tree keeps.
		keep[i], _ = FromIDs(tab, append([]int32(nil), ids...), form.ChildCounts)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / copies
	runtime.KeepAlive(keep)
	t.Logf("retained %d bytes per 40-node tree", per)
	if per > 1720 {
		t.Fatalf("a 40-node tree retains %d bytes, want ≤ 1,720", per)
	}
}
