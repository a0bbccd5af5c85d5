//go:build !amd64

package device

import (
	"runtime"
	"testing"
)

// setAVX mirrors the amd64 helper: there is no AVX tile on this GOARCH,
// so asking for it skips t and turning it off changes nothing.
func setAVX(t *testing.T, on bool) {
	t.Helper()
	if on {
		t.Skip("no AVX tile on " + runtime.GOARCH)
	}
}
