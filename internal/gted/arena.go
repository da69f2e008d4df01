package gted

// Arena owns every reusable buffer a GTED run needs: the subtree-distance
// matrix, the pair memo, the ΔL/ΔR forest-distance scratch, the ΔI row
// pool, and the chain/decomposition scratch of ΔI. Buffers grow to the
// largest pair run since the last Shrink and are then reused verbatim,
// so a worker that processes a stream of tree pairs through one Arena
// allocates nothing in steady state.
//
// An Arena serves one Runner at a time (Runners are single-use and GTED's
// single-path functions never nest). Creating a new Runner on an Arena
// invalidates the distances of every previous Runner backed by it: the
// matrix memory is reused in place.
type Arena struct {
	d        []float64
	seen     []bool
	fd       []float64
	keyroots []int
	rowPool  [][]float64
	rows     [][]float64
	ch       chain
	gs       gside
	// Bounded runs: per-subtree height arrays (keyroot-level band) and
	// the T2 path-chain coordinates of one ΔL/ΔR keyroot (saturating
	// skipped whole-subtree cells).
	hF, hG  []int32
	chainDJ []int32
	chainN2 []int32
	// Bounded runs: the band-compressed ΔL/ΔR forest-distance slab (kept
	// apart from fd so full-width rows never force it to row width) and
	// the depth-spectra scratch.
	fdB      []float64
	spF, spG []int32
}

// NewArena returns an empty arena. The zero value is also ready to use.
func NewArena() *Arena { return &Arena{} }

// Cells is the number of cells the arena's subtree-distance matrix has
// room for: the largest |F|·|G| run since the last Shrink.
func (ar *Arena) Cells() int { return cap(ar.d) }

// Shrink drops every buffer of the arena when its subtree-distance
// matrix was sized for more than maxCells cells, so a pooled arena does
// not keep the memory of one huge pair.
func (ar *Arena) Shrink(maxCells int) {
	if ar.Cells() > maxCells {
		*ar = Arena{}
	}
}

// growF64 resizes a float64 buffer to n cells, reusing capacity. The
// contents are unspecified.
func growF64(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growI32 is growF64 for int32 buffers.
func growI32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growBool is growF64 for bool buffers.
func growBool(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
