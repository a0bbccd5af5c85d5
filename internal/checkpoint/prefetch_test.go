package checkpoint

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"

	"repro/internal/core"
)

// trainRecord trains one replica of a one-epoch SmallCNN cell and returns
// its encoded record.
func trainRecord(t *testing.T, v core.Variant, replica int) []byte {
	t.Helper()
	ds := data.CIFAR10Like(data.ScaleTest)
	cfg := core.TrainConfig{
		Model:    func() *nn.Sequential { return models.SmallCNN(models.DefaultSmallCNN(ds.Classes)) },
		Dataset:  ds,
		Device:   device.V100,
		Epochs:   1,
		Batch:    32,
		Schedule: opt.Constant(0.05),
		Momentum: 0.9,
		Augment:  data.Augment{Shift: 1, Flip: true},
		BaseSeed: 20220622,
	}
	res, err := core.RunReplica(context.Background(), cfg, v, replica)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeResult(&buf, "cell", res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointBytesInvariantUnderPrefetch trains one cell with the
// loader's background batch assembly on and then off and requires the
// serialized checkpoints to be byte-for-byte identical: the prefetch
// goroutine is a pure wall-clock knob all the way down to the on-disk
// artifact.
func TestCheckpointBytesInvariantUnderPrefetch(t *testing.T) {
	encode := func(prefetch bool) []byte {
		prev := core.SetBatchPrefetch(prefetch)
		defer core.SetBatchPrefetch(prev)
		return trainRecord(t, core.AlgoImpl, 0)
	}
	on := encode(true)
	off := encode(false)
	if !bytes.Equal(on, off) {
		t.Fatalf("checkpoint bytes differ between prefetch on and off: %d vs %d bytes", len(on), len(off))
	}
}

// TestCheckpointAuditsControlReplicas is the use case the record exists
// for: two CONTROL replicas encode to the same bytes everywhere but the
// replica index (and so the checksum); two ALGO replicas do not.
func TestCheckpointAuditsControlReplicas(t *testing.T) {
	body := func(v core.Variant, replica int) []byte {
		rec := trainRecord(t, v, replica)
		off := len(resultMagic) + 4 + len("cell") + 4 // up to the replica index
		return append(rec[:off:off], rec[off+4:len(rec)-4]...)
	}
	if !bytes.Equal(body(core.Control, 0), body(core.Control, 1)) {
		t.Fatal("CONTROL replicas have different records")
	}
	if bytes.Equal(body(core.Algo, 0), body(core.Algo, 1)) {
		t.Fatal("ALGO replicas have identical records")
	}
}
