package device

import "unsafe"

// useAVX selects the 4×16 AVX tile (kern4x16AVX) for each pair of 8-column
// tiles. It follows the hardware, read once from CPUID/XGETBV at package
// init; tests flip it to run both tiles on one host.
var useAVX = cpuAVX()

// kern4x8 runs tiles consecutive 4×8 register tiles along a strip: for
// each tile t it adds a 4×kc by kc×8 product into C,
//
//	C[r*ldc+8t+j] += A[p][r] * B[p*ldb+8t+j]  for p = 0..kc-1, in that order,
//
// for r < 4 and j < 8, where a is the strip as packStrip lays it out
// (A[p][r] broadcast to a[p*16+r*4 : p*16+r*4+4]). Each step is one
// rounded float32 product B·a and one rounded add prod + acc, exactly as
// axpy computes it; a tile of C lives in registers for the whole K block
// and is read and written once. The caller guarantees ldc >= 8*tiles and
// that a has no exact zeros (the zero skip is the caller's). On amd64 the
// tiles run in assembly (kern_amd64.s), which needs a 16-byte aligned: on
// AVX hosts each pair of tiles runs as one 4×16 AVX tile and an odd last
// tile in SSE2, elsewhere every tile runs in SSE2. Both use separate
// multiplies and adds under the same rounding, so they give the same bits;
// no fused multiply-add is used.
func kern4x8(kc int, a, b []float32, ldb int, c []float32, ldc, tiles int) {
	if kc <= 0 || tiles <= 0 {
		return
	}
	// Bounds the assembly relies on, checked once per strip.
	_ = a[16*kc-1]
	_ = b[(kc-1)*ldb+8*tiles-1]
	_ = c[3*ldc+8*tiles-1]
	if uintptr(unsafe.Pointer(&a[0]))&15 != 0 {
		panic("device: kern4x8 strip is not 16-byte aligned")
	}
	if useAVX && tiles >= 2 {
		pairs := tiles / 2
		kern4x16AVX(kc, &a[0], &b[0], ldb, &c[0], ldc, pairs)
		if tiles%2 == 0 {
			return
		}
		b, c, tiles = b[16*pairs:], c[16*pairs:], 1
	}
	kern4x8SSE(kc, &a[0], &b[0], ldb, &c[0], ldc, tiles)
}

// kern4x8SSE, kern4x16AVX and cpuAVX are implemented in kern_amd64.s.

//go:noescape
func kern4x8SSE(kc int, a, b *float32, ldb int, c *float32, ldc, tiles int)

//go:noescape
func kern4x16AVX(kc int, a, b *float32, ldb int, c *float32, ldc, pairs int)

func cpuAVX() bool
