// Package device simulates the accelerators the paper evaluates: NVIDIA
// GPUs with different CUDA-core counts (P100, V100, RTX5000, T4), the
// RTX5000's Tensor Cores, and the systolic, single-threaded TPUv2.
//
// Simulation model. Real accelerators differ from a CPU in exactly one way
// that matters to this paper: the order in which floating-point partial
// sums are combined. GPUs commit thread-block partials in scheduler order
// (atomicAdd, split-K GEMM), so the order — and therefore the float32
// rounding — varies run to run. TPUs pump values through a systolic array
// in a fixed order, so they are deterministic given identical input order.
// Tensor Cores are systolic tiles for matmul, but every op a Tensor Core
// cannot run falls back to the nondeterministic CUDA-core path.
//
// Each simulated device therefore executes the same arithmetic as the CPU
// reference, but splits every reduction into chunk partials and commits
// them in an accumulation order drawn from a hardware-entropy stream.
// Chunk counts scale with the simulated CUDA-core count, so cards with more
// cores (V100) exhibit more reordering noise — reproducing the paper's
// Figure 5 finding.
// In Deterministic mode all orders are fixed, modelling the framework
// determinism patches (TF_DETERMINISTIC_OPS / cuDNN deterministic algos).
package device

import (
	"fmt"
	"strings"
)

// Arch identifies a simulated accelerator micro-architecture.
type Arch string

// Simulated architectures. The GPU generations matter to the overhead model
// (internal/profile): deterministic algorithm penalties shrink with newer
// generations, as the paper measures (P100 >> V100 > T4).
const (
	ArchCPU     Arch = "CPU"
	ArchPascal  Arch = "Pascal"
	ArchVolta   Arch = "Volta"
	ArchTuring  Arch = "Turing"
	ArchTPU     Arch = "TPU"
	ArchUnknown Arch = ""
)

// Config describes a simulated part.
type Config struct {
	Name        string
	Arch        Arch
	CUDACores   int  // 0 for non-GPU devices
	TensorCores bool // route matmuls through systolic fp16 tiles
	Systolic    bool // TPU-style fully deterministic execution
}

// Catalog of the parts evaluated in the paper (core counts from Section 2.2).
var (
	CPU       = Config{Name: "CPU", Arch: ArchCPU}
	P100      = Config{Name: "P100", Arch: ArchPascal, CUDACores: 3584}
	V100      = Config{Name: "V100", Arch: ArchVolta, CUDACores: 5120}
	RTX5000   = Config{Name: "RTX5000", Arch: ArchTuring, CUDACores: 3072}
	RTX5000TC = Config{Name: "RTX5000 TC", Arch: ArchTuring, CUDACores: 3072, TensorCores: true}
	T4        = Config{Name: "T4", Arch: ArchTuring, CUDACores: 2560}
	TPUv2     = Config{Name: "TPUv2", Arch: ArchTPU, Systolic: true}
)

// Catalog lists every simulated part, in the order used by figures.
var Catalog = []Config{CPU, P100, V100, RTX5000, RTX5000TC, T4, TPUv2}

// Alias is the canonical lookup key of a device name: lowercase with all
// punctuation and spacing dropped, so "RTX5000 TC", "rtx5000tc" and
// "rtx5000-tc" address the same part. ByName matches on it.
func Alias(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		}
	}
	return b.String()
}

// ByName returns the catalog entry matching the given name or alias,
// case- and punctuation-insensitively ("v100", "RTX5000 TC", "rtx5000tc").
func ByName(name string) (Config, error) {
	want := Alias(name)
	for _, c := range Catalog {
		if Alias(c.Name) == want {
			return c, nil
		}
	}
	names := make([]string, len(Catalog))
	for i, c := range Catalog {
		names[i] = c.Name
	}
	return Config{}, fmt.Errorf("device: unknown device %q (known: %s)", name, strings.Join(names, ", "))
}

// Info is the JSON-ready description of one catalog entry, served by
// `nnrand devices` and GET /v1/devices so users can compose grid specs
// without reading source.
type Info struct {
	Name        string `json:"name"`
	Alias       string `json:"alias"`
	Arch        string `json:"arch"`
	CUDACores   int    `json:"cuda_cores,omitempty"`
	TensorCores bool   `json:"tensor_cores,omitempty"`
	Systolic    bool   `json:"systolic,omitempty"`
	// Deterministic reports whether replicas on this part are bit-identical
	// given identical inputs (systolic execution or no parallel reduction).
	Deterministic bool `json:"deterministic"`
}

// Describe lists the catalog as Info values, in catalog order.
func Describe() []Info {
	out := make([]Info, len(Catalog))
	for i, c := range Catalog {
		out[i] = Info{
			Name:          c.Name,
			Alias:         Alias(c.Name),
			Arch:          string(c.Arch),
			CUDACores:     c.CUDACores,
			TensorCores:   c.TensorCores,
			Systolic:      c.Systolic,
			Deterministic: c.DeterministicExecution(),
		}
	}
	return out
}

// DeterministicExecution reports whether replicas on this part are
// bit-identical given identical inputs: systolic parts and serial
// (no-CUDA-core) parts have a fixed accumulation order, so no reduction
// ever reorders. reorderChunks and the /v1/devices catalog both derive
// from this one predicate.
func (c Config) DeterministicExecution() bool {
	return c.Systolic || c.CUDACores == 0
}

// reorderChunks returns how many scheduler-ordered partial sums a reduction
// of length n splits into on this part. More CUDA cores mean more thread
// blocks in flight and therefore more reordering freedom.
func (c Config) reorderChunks(n int) int {
	if c.DeterministicExecution() {
		return 1
	}
	chunks := c.CUDACores / 256 // P100: 14, V100: 20, RTX5000: 12, T4: 10
	if chunks < 2 {
		chunks = 2
	}
	if chunks > n {
		chunks = n
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}
