//go:build !amd64

package device

// axpy computes y[j] += a*x[j] for every j. The 4-way unroll with the
// up-front length clamp hoists bounds checks out of the loop body; each
// y[j] receives one multiply and then one add per call, in index order.
// The explicit float32 conversion rounds the product on its own, which
// keeps compilers that fuse a*x+y (arm64, ppc64, s390x) from emitting a
// fused multiply-add, so results match the amd64 assembly bit for bit.
func axpy(a float32, x, y []float32) {
	x = x[:len(y)] // hoist bounds checks: the compiler now knows both lengths
	j := 0
	for ; j+3 < len(y); j += 4 {
		y[j] += float32(a * x[j])
		y[j+1] += float32(a * x[j+1])
		y[j+2] += float32(a * x[j+2])
		y[j+3] += float32(a * x[j+3])
	}
	for ; j < len(y); j++ {
		y[j] += float32(a * x[j])
	}
}
