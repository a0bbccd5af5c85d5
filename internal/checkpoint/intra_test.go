package checkpoint

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sched"
)

// TestCheckpointBytesInvariantUnderIntraParallelism trains one cell whose
// kernels all clear the (lowered) intra-op sharding threshold, once on a
// single worker and once on four, and requires the serialized checkpoints
// to be byte-for-byte identical: intra-kernel parallelism is a pure
// wall-clock knob all the way down to the on-disk artifact.
func TestCheckpointBytesInvariantUnderIntraParallelism(t *testing.T) {
	oldWorkers := sched.Workers()
	device.SetIntraOpThreshold(1) // every kernel shards when workers allow
	defer func() {
		device.SetIntraOpThreshold(0)
		sched.SetWorkers(oldWorkers)
	}()

	encode := func(workers int) []byte {
		sched.SetWorkers(workers)
		return trainRecord(t, core.AlgoImpl, 0)
	}

	serial := encode(1)
	sharded := encode(4)
	if !bytes.Equal(serial, sharded) {
		t.Fatalf("checkpoint bytes differ between 1 and 4 workers: %d vs %d bytes", len(serial), len(sharded))
	}
}
