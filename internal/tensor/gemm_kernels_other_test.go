//go:build !amd64

package tensor

// forEachKernel runs f once per microkernel the dispatch can pick; off
// amd64 that is the pure-Go reference alone.
func forEachKernel(f func(name string)) { f("kern4x8go") }
