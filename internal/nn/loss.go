package nn

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/tensor"
)

// SoftmaxCrossEntropy computes mean softmax cross-entropy over a batch of
// logits (N, K) against integer labels, returning the scalar loss and the
// gradient with respect to the logits. The final loss averaging runs
// through the device's reduction path. The logits are left intact and the
// gradient is freshly allocated — this is the reference form; the training
// loop uses SoftmaxCrossEntropyInPlace.
func SoftmaxCrossEntropy(dev *device.Device, logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, k := checkLogits(logits, labels)
	dlogits := tensor.New(n, k)
	loss := softmaxCE(dev, logits.Data(), dlogits.Data(), n, k, labels)
	return loss, dlogits
}

// SoftmaxCrossEntropyInPlace is SoftmaxCrossEntropy writing the gradient
// over the logits tensor itself (returned), destroying the logits. The
// per-element arithmetic and the stream/reduction behaviour are identical
// to the reference form — softmaxCE reads each logit before overwriting it
// — so losses and gradients are bit-identical (pinned by TestSoftmaxCEInPlaceMatchesReference).
func SoftmaxCrossEntropyInPlace(dev *device.Device, logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, k := checkLogits(logits, labels)
	loss := softmaxCE(dev, logits.Data(), logits.Data(), n, k, labels)
	return loss, logits
}

func checkLogits(logits *tensor.Tensor, labels []int) (n, k int) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: logits must be (N, K), got %v", logits.Shape()))
	}
	n, k = logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	return n, k
}

// softmaxCE is the shared kernel: gradient rows are written to gd, which
// may alias ld (the in-place form). Each ld element is read before the
// aliased gd element is written — the label logit is captured before the
// exp loop — so aliasing never changes a result bit.
func softmaxCE(dev *device.Device, ld, gd []float32, n, k int, labels []int) float64 {
	perExample := tensor.GetScratch(n)
	invN := 1 / float32(n)
	for i := 0; i < n; i++ {
		row := ld[i*k : (i+1)*k]
		grow := gd[i*k : (i+1)*k]
		y := labels[i]
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, k))
		}
		// Numerically stable softmax.
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		vy := row[y]
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxV))
			grow[j] = float32(e)
			sum += e
		}
		logZ := math.Log(sum)
		perExample[i] = float32(logZ - float64(vy-maxV))
		inv := float32(1 / sum)
		for j := range grow {
			grow[j] *= inv * invN
		}
		grow[y] -= invN
	}
	loss := float64(dev.ReduceSum(perExample)) / float64(n)
	tensor.PutScratch(perExample)
	return loss
}
