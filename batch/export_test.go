package batch

import "testing"

// UpperAcceptAllocs runs the join's per-pair filter on f, g at tau on one
// pooled workspace, reports whether the constrained upper bound accepted
// the pair, and measures the allocations of further runs of the same pair
// on that now-warm workspace.
func UpperAcceptAllocs(e *Engine, f, g *PreparedTree, tau float64) (accepted bool, allocs float64) {
	ws := e.getWS()
	defer e.putWS(ws)
	var st JoinStats
	e.filterPair(ws, &st, f, g, 0, tau, true)
	accepted = st.UpperAccepted == 1
	allocs = testing.AllocsPerRun(20, func() { e.filterPair(ws, &st, f, g, 0, tau, true) })
	return accepted, allocs
}

// TopKRun runs one top-k-style GTED pass of f against g on a pooled
// workspace — cutoff tau, no early abort, as TopKAcrossStream runs each
// data tree — and returns its stats.
func TopKRun(e *Engine, f, g *PreparedTree, tau float64) Stats {
	ws := e.getWS()
	defer e.putWS(ws)
	r := e.pairRunner(ws, f, g)
	r.SetCutoff(tau, false)
	r.Run()
	return r.Stats()
}

// MaxPooledArenaCells is the matrix size above which putWS drops a
// workspace's GTED arena.
const MaxPooledArenaCells = maxPooledArenaCells

// PooledArenaCells runs the exact distance of f and g on a pooled
// workspace, hands the workspace back with putWS, and reports the
// matrix cells its arena still holds. It reads the workspace after it
// is back in the pool, so only a test that runs alone may call it.
func PooledArenaCells(e *Engine, f, g *PreparedTree) int {
	ws := e.getWS()
	e.pairRunner(ws, f, g).Run()
	e.putWS(ws)
	return ws.arena.Cells()
}
