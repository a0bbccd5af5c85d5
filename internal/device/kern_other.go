//go:build !amd64

package device

// kern4x8 runs tiles consecutive 4×8 register tiles along a strip: for
// each tile t it adds a 4×kc by kc×8 product into C,
//
//	C[r*ldc+8t+j] += A[p][r] * B[p*ldb+8t+j]  for p = 0..kc-1, in that order,
//
// for r < 4 and j < 8, where a is the strip as packStrip lays it out
// (A[p][r] broadcast to a[p*16+r*4 : p*16+r*4+4]). Each step is one
// rounded float32 product B·a and one rounded add prod + acc, exactly as
// axpy computes it; a tile of C is held in locals across the K block. The
// explicit float32 conversion rounds each product on its own, so compilers
// that fuse a*b+c cannot emit a fused multiply-add. The caller guarantees
// ldc >= 8*tiles and that a has no exact zeros (the zero skip is the
// caller's).
func kern4x8(kc int, a, b []float32, ldb int, c []float32, ldc, tiles int) {
	if kc <= 0 {
		return
	}
	for t := 0; t < tiles; t++ {
		var acc [4][8]float32
		for r := range acc {
			copy(acc[r][:], c[r*ldc+8*t:r*ldc+8*t+8])
		}
		for p := 0; p < kc; p++ {
			bp := b[p*ldb+8*t : p*ldb+8*t+8]
			for r := range acc {
				av := a[p*16+r*4]
				row := &acc[r]
				for j, bv := range bp {
					row[j] = float32(bv*av) + row[j]
				}
			}
		}
		for r := range acc {
			copy(c[r*ldc+8*t:r*ldc+8*t+8], acc[r][:])
		}
	}
}
