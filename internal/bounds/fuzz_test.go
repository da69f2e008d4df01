package bounds

import (
	"testing"

	"repro/internal/tree"
)

// FuzzProfiledBounds fuzzes the interned-id profiles against the
// string-keyed bounds they replace. Two bracket trees are profiled
// through one label table — g's labels interned first when gFirst, so ids
// and string order disagree in different ways — and every profiled
// bound must equal its string-keyed counterpart in both orientations,
// while SubtreeLowerProfiled and the Euler-string bound stay at or below
// the Zhang–Shasha distance from the query to every subtree of the data
// tree, and the Euler bound cut at tau exceeds tau exactly when the full
// bound does.
//
// Run continuously with: go test -fuzz=FuzzProfiledBounds ./internal/bounds
func FuzzProfiledBounds(f *testing.F) {
	f.Add("{a{b}{c}}", "{a{b{d}}}", false)
	f.Add("{x{y{z}}}", "{p{q}{r}}", true)
	f.Add("{{}{a}}", "{a{}{}}", false)
	f.Add("{r{a{b}{c}}{d}}", "{r{d}{a{c}{b}}}", true)
	f.Add("{x{x}{x}{x}{x}}", "{x{x{x{x{x}}}}}", false)

	f.Fuzz(func(t *testing.T, fs, gs string, gFirst bool) {
		ft, err := tree.ParseBracket(fs)
		if err != nil || ft.Len() > 40 {
			t.Skip()
		}
		gt, err := tree.ParseBracket(gs)
		if err != nil || gt.Len() > 40 {
			t.Skip()
		}
		in := tree.NewLabelTable()
		if gFirst {
			for v := gt.Len() - 1; v >= 0; v-- {
				in.Intern(gt.Label(v))
			}
		}
		checkProfiledBounds(t, ft, gt, in)
	})
}
