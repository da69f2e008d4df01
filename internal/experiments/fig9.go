package experiments

import (
	"fmt"
	"time"

	ted "repro"
	"repro/internal/cost"
	"repro/internal/gted"
	"repro/internal/strategy"
	"repro/internal/treegen"
	"repro/internal/zs"
)

// Figure 9: wall-clock runtime of the fastest algorithms — Zhang-L (the
// hard-coded classical implementation, as in the paper), Demaine-H (via
// GTED) and RTED — on identical pairs of full binary, zig-zag and mixed
// trees. Absolute numbers differ from the paper's 2011 Java/AMD setup;
// the reproduced claims are the relative orderings and growth shapes.

func init() {
	cases := []struct {
		id    string
		title string
		shape treegen.Shape
		hi    int
	}{
		{"fig9a", "Figure 9(a) runtime on full binary trees", treegen.ShapeFB, 1023},
		{"fig9b", "Figure 9(b) runtime on zig-zag trees", treegen.ShapeZZ, 2000},
		{"fig9c", "Figure 9(c) runtime on mixed trees", treegen.ShapeMX, 1600},
	}
	for _, c := range cases {
		c := c
		register(c.id, c.title, func(cfg Config) error { return fig9(cfg, c.id, c.title, c.shape, c.hi) })
	}
}

func fig9(cfg Config, id, title string, shape treegen.Shape, hi int) error {
	header(cfg, id, title, "size", "Zhang-L[s]", "Demaine-H[s]", "RTED[s]")
	for _, n := range cfg.sizes(200, hi, 5) {
		t := shape.Build(n)

		start := time.Now()
		zs.Run(t, t, cost.Unit{})
		zl := time.Since(start)

		start = time.Now()
		gted.New(t, t, cost.Unit{}, strategy.DemaineH(t, t)).Run()
		dh := time.Since(start)

		var st ted.Stats
		ted.Distance(t, t, ted.WithStats(&st))

		fmt.Fprintf(cfg.Out, "%d\t%s\t%s\t%s\n", t.Len(), secs(zl), secs(dh), secs(st.TotalTime))
	}
	return nil
}
