package device

import "testing"

// hostAVX is the hardware's choice of tile, before any test flips useAVX.
var hostAVX = useAVX

// setAVX runs the rest of t with the AVX tile on or off and restores the
// hardware's choice when t ends. Asking for AVX on a host without it skips
// t. Tests in this package run sequentially, so flipping the global is
// safe.
func setAVX(t *testing.T, on bool) {
	t.Helper()
	if on && !hostAVX {
		t.Skip("host has no AVX")
	}
	useAVX = on
	t.Cleanup(func() { useAVX = hostAVX })
}
