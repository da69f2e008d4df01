package batch

import "testing"

// UpperAcceptAllocs runs the join's per-pair filter on f, g at tau on one
// pooled workspace, reports whether the constrained upper bound accepted
// the pair, and measures the allocations of further runs of the same pair
// on that now-warm workspace.
func UpperAcceptAllocs(e *Engine, f, g *PreparedTree, tau float64) (accepted bool, allocs float64) {
	ws := e.getWS()
	defer e.putWS(ws)
	accepted = e.filterPair(ws, f, g, 0, tau, true).kind == pairUpperAccepted
	allocs = testing.AllocsPerRun(20, func() { e.filterPair(ws, f, g, 0, tau, true) })
	return accepted, allocs
}
