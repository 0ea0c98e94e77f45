package tensor

// forEachKernel runs f once per microkernel the dispatch can pick: the AVX
// asm when this CPU runs it, then the pure-Go reference.
func forEachKernel(f func(name string)) {
	if haveAVX {
		f("kern4x8asm")
	}
	prev := haveAVX
	haveAVX = false
	defer func() { haveAVX = prev }()
	f("kern4x8go")
}
