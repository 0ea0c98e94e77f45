package tensor

// Arena is a bump allocator for per-inference scratch: tensor data, tensor
// headers, shape slices and kernel panel buffers are carved out of three
// reusable slabs. A serving replica owns one arena, calls Reset at the
// start of every request, and runs its whole forward pass out of the slabs
// — after a warm-up forward has sized them, a steady-state request
// performs zero heap allocations (enforced by the allocs/op budget test in
// internal/edge).
//
// Contracts:
//   - NOT safe for concurrent use. One arena per replica, and Reset must
//     only run while no forward on that replica is in flight.
//   - Reset invalidates everything previously returned: slices are handed
//     out again and headers are overwritten. Callers must finish reading a
//     request's outputs (e.g. softmax/argmax over logits) before the next
//     Reset — the edge server extracts results before checking a replica
//     back into its pool for exactly this reason.
//   - Memory is NOT zeroed. New and Floats return buffers holding the
//     previous cycle's values; every consumer must write each element it
//     will read (all eval-mode layers in internal/nn do).
//
// When a cycle demands more than a slab holds, the overflow is served from
// the regular heap and recorded; the next Reset grows the slab to the
// observed high-water mark, so allocation cost is paid once after a shape
// change (the edge warms replicas at registration to front-load this).
type Arena struct {
	floats []float32
	fOff   int
	fNeed  int

	ints  []int
	iOff  int
	iNeed int

	hdrs  []Tensor
	hOff  int
	hNeed int
}

// NewArena returns an empty arena; the first forward pass (or an explicit
// warm-up) sizes its slabs.
func NewArena() *Arena { return &Arena{} }

// Reset rewinds the arena for the next request, growing any slab whose
// last cycle overflowed to the observed demand.
func (a *Arena) Reset() {
	if a.fNeed > 0 {
		a.floats = make([]float32, a.fOff+a.fNeed)
		a.fNeed = 0
	}
	if a.iNeed > 0 {
		a.ints = make([]int, a.iOff+a.iNeed)
		a.iNeed = 0
	}
	if a.hNeed > 0 {
		a.hdrs = make([]Tensor, a.hOff+a.hNeed)
		a.hNeed = 0
	}
	a.fOff, a.iOff, a.hOff = 0, 0, 0
}

// FootprintBytes returns the total slab capacity in bytes, for diagnostics
// and capacity planning (per-replica steady-state scratch).
func (a *Arena) FootprintBytes() int64 {
	return int64(len(a.floats))*4 + int64(len(a.ints))*8 + int64(len(a.hdrs))*8 // hdr size approximated
}

// Floats returns an n-length scratch slice valid until the next Reset.
// Contents are unspecified; the caller must write every element it reads.
func (a *Arena) Floats(n int) []float32 {
	if a.fOff+n <= len(a.floats) {
		s := a.floats[a.fOff : a.fOff+n : a.fOff+n]
		a.fOff += n
		return s
	}
	a.fNeed += n
	return make([]float32, n)
}

func (a *Arena) intSlice(n int) []int {
	if a.iOff+n <= len(a.ints) {
		s := a.ints[a.iOff : a.iOff+n : a.iOff+n]
		a.iOff += n
		return s
	}
	a.iNeed += n
	return make([]int, n)
}

func (a *Arena) header() *Tensor {
	if a.hOff < len(a.hdrs) {
		t := &a.hdrs[a.hOff]
		a.hOff++
		return t
	}
	a.hNeed++
	return &Tensor{}
}

// arenaShapeLen validates shape and returns its element count. It
// deliberately panics with plain strings — routing shape through
// fmt.Sprintf (as checkShape does) would make the variadic argument escape
// to the heap and cost the zero-alloc hot path one allocation per call.
func arenaShapeLen(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: arena tensor with empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: arena tensor with non-positive dimension")
		}
		n *= d
	}
	return n
}

// New returns an arena-backed tensor of the given shape. Unlike
// tensor.New, the data is NOT zeroed — it recycles a previous cycle's
// bytes — so the caller must write every element it will read.
func (a *Arena) New(shape ...int) *Tensor {
	n := arenaShapeLen(shape)
	t := a.header()
	s := a.intSlice(len(shape))
	copy(s, shape)
	t.Shape = s
	t.Data = a.Floats(n)
	return t
}

// View returns an arena-backed header over t's existing data with a new
// shape (the arena analogue of Reshape without the header allocation).
func (a *Arena) View(t *Tensor, shape ...int) *Tensor {
	n := arenaShapeLen(shape)
	if n != len(t.Data) {
		panic("tensor: Arena.View shape incompatible with tensor size")
	}
	v := a.header()
	s := a.intSlice(len(shape))
	copy(s, shape)
	v.Shape = s
	v.Data = t.Data
	return v
}
