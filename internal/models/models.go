// Package models builds the trainable networks the paper evaluates —
// the three-layer small CNN (with and without batch normalization), the
// six-layer medium CNN with configurable convolution kernel size, and
// scaled-down ResNet-18 / ResNet-50 — plus static layer-graph descriptors
// of the ten large CNNs the paper profiles for deterministic-mode overhead
// (VGG, ResNet, DenseNet, Inception, Xception, MobileNet, EfficientNet).
//
// The trainable models are resized for the synthetic 8×8 datasets: widths
// and depths shrink but the structural properties the paper attributes
// results to are preserved — the small CNN's lack of batch normalization,
// ResNet's residual topology with BN everywhere, and the medium CNN's
// kernel-size knob.
package models

import (
	"fmt"

	"repro/internal/nn"
)

// SmallCNNConfig parameterizes the paper's three-layer small CNN
// (Appendix C): three conv+ReLU+maxpool blocks, a dense hidden layer, and
// the classifier head. BatchNorm defaults to off — the small CNN is the
// paper's only unnormalized model, which is what makes it the most
// noise-amplifying architecture in Figure 1.
type SmallCNNConfig struct {
	InC, H, W int
	Classes   int
	Widths    [3]int
	Hidden    int
	BatchNorm bool
}

// DefaultSmallCNN returns the configuration used by the experiments for the
// 3×8×8 synthetic datasets.
func DefaultSmallCNN(classes int) SmallCNNConfig {
	return SmallCNNConfig{InC: 3, H: 8, W: 8, Classes: classes, Widths: [3]int{8, 16, 16}, Hidden: 32}
}

// SmallCNN builds the three-layer small CNN.
func SmallCNN(cfg SmallCNNConfig) *nn.Sequential {
	name := "smallcnn"
	if cfg.BatchNorm {
		name = "smallcnn-bn"
	}
	net := nn.NewSequential(name)
	in := cfg.InC
	spatial := cfg.H
	for i, w := range cfg.Widths {
		net.Append(nn.NewConv2D(fmt.Sprintf("conv%d", i+1), in, w, 3, 1, 1))
		if cfg.BatchNorm {
			net.Append(nn.NewBatchNorm(fmt.Sprintf("bn%d", i+1), w))
		}
		net.Append(nn.NewReLU(fmt.Sprintf("relu%d", i+1)))
		net.Append(nn.NewMaxPool2D(fmt.Sprintf("pool%d", i+1)))
		in = w
		spatial /= 2
	}
	flat := in * spatial * spatial
	net.Append(
		nn.NewFlatten("flatten"),
		nn.NewDense("fc1", flat, cfg.Hidden),
		nn.NewReLU("fc1relu"),
		nn.NewDense("head", cfg.Hidden, cfg.Classes),
	)
	return net
}

// MediumCNN builds the six-layer medium CNN (Appendix C): six conv-BN-ReLU
// blocks with a configurable square kernel size (1, 3, 5 or 7 in the
// paper's Figure 8b sweep), pooling after every second block, global
// average pooling and a classifier.
func MediumCNN(kernel, classes int) *nn.Sequential {
	if kernel != 1 && kernel != 3 && kernel != 5 && kernel != 7 {
		panic(fmt.Sprintf("models: MediumCNN kernel must be 1/3/5/7, got %d", kernel))
	}
	widths := []int{8, 8, 16, 16, 32, 32}
	net := nn.NewSequential(fmt.Sprintf("mediumcnn-k%d", kernel))
	in := 3
	for i, w := range widths {
		pad := kernel / 2
		net.Append(
			nn.NewConv2D(fmt.Sprintf("conv%d", i+1), in, w, kernel, 1, pad),
			nn.NewBatchNorm(fmt.Sprintf("bn%d", i+1), w),
			nn.NewReLU(fmt.Sprintf("relu%d", i+1)),
		)
		if i%2 == 1 {
			net.Append(nn.NewMaxPool2D(fmt.Sprintf("pool%d", i/2+1)))
		}
		in = w
	}
	net.Append(
		nn.NewGlobalAvgPool("gap"),
		nn.NewDense("head", in, classes),
	)
	return net
}

// basicBlock builds one ResNet basic block (two 3×3 convs with BN).
func basicBlock(name string, in, out, stride int) *nn.Residual {
	body := nn.NewSequential(name+"/body",
		nn.NewConv2D(name+"/conv1", in, out, 3, stride, 1),
		nn.NewBatchNorm(name+"/bn1", out),
		nn.NewReLU(name+"/relu1"),
		nn.NewConv2D(name+"/conv2", out, out, 3, 1, 1),
		nn.NewBatchNorm(name+"/bn2", out),
	)
	var shortcut *nn.Sequential
	if stride != 1 || in != out {
		shortcut = nn.NewSequential(name+"/short",
			nn.NewConv2D(name+"/proj", in, out, 1, stride, 0),
			nn.NewBatchNorm(name+"/projbn", out),
		)
	}
	return nn.NewResidual(name, body, shortcut)
}

// bottleneckBlock builds one ResNet bottleneck block (1×1 reduce, 3×3,
// 1×1 expand), the ResNet-50 building block.
func bottleneckBlock(name string, in, mid, out, stride int) *nn.Residual {
	body := nn.NewSequential(name+"/body",
		nn.NewConv2D(name+"/conv1", in, mid, 1, 1, 0),
		nn.NewBatchNorm(name+"/bn1", mid),
		nn.NewReLU(name+"/relu1"),
		nn.NewConv2D(name+"/conv2", mid, mid, 3, stride, 1),
		nn.NewBatchNorm(name+"/bn2", mid),
		nn.NewReLU(name+"/relu2"),
		nn.NewConv2D(name+"/conv3", mid, out, 1, 1, 0),
		nn.NewBatchNorm(name+"/bn3", out),
	)
	var shortcut *nn.Sequential
	if stride != 1 || in != out {
		shortcut = nn.NewSequential(name+"/short",
			nn.NewConv2D(name+"/proj", in, out, 1, stride, 0),
			nn.NewBatchNorm(name+"/projbn", out),
		)
	}
	return nn.NewResidual(name, body, shortcut)
}

// ResNet18 builds the scaled-down ResNet-18: a stem conv plus three stages
// of two basic blocks (widths 8/16/32) for 8×8 inputs, global average
// pooling and a linear head. Batch normalization everywhere, as in the
// original — the property the paper credits for ResNet's noise damping.
func ResNet18(classes int) *nn.Sequential {
	const w = 8
	net := nn.NewSequential("resnet18",
		nn.NewConv2D("stem", 3, w, 3, 1, 1),
		nn.NewBatchNorm("stembn", w),
		nn.NewReLU("stemrelu"),
	)
	widths := []int{w, 2 * w, 4 * w}
	in := w
	for s, out := range widths {
		stride := 2
		if s == 0 {
			stride = 1
		}
		net.Append(
			basicBlock(fmt.Sprintf("s%db1", s+1), in, out, stride),
			basicBlock(fmt.Sprintf("s%db2", s+1), out, out, 1),
		)
		in = out
	}
	net.Append(
		nn.NewGlobalAvgPool("gap"),
		nn.NewDense("head", in, classes),
	)
	return net
}

// ResNet50 builds the scaled-down bottleneck ResNet standing in for the
// paper's ImageNet ResNet-50: three stages of two bottleneck blocks with
// 2× expansion.
func ResNet50(classes int) *nn.Sequential {
	const w = 8
	net := nn.NewSequential("resnet50",
		nn.NewConv2D("stem", 3, w, 3, 1, 1),
		nn.NewBatchNorm("stembn", w),
		nn.NewReLU("stemrelu"),
	)
	in := w
	for s := 0; s < 3; s++ {
		mid := w << s
		out := 2 * mid
		stride := 2
		if s == 0 {
			stride = 1
		}
		net.Append(
			bottleneckBlock(fmt.Sprintf("s%db1", s+1), in, mid, out, stride),
			bottleneckBlock(fmt.Sprintf("s%db2", s+1), out, mid, out, 1),
		)
		in = out
	}
	net.Append(
		nn.NewGlobalAvgPool("gap"),
		nn.NewDense("head", in, classes),
	)
	return net
}

// CelebAResNet18 builds the model for the CelebA-like attribute task: the
// ResNet-18 trunk with a 2-class head (the experiments use softmax over
// {negative, positive}).
func CelebAResNet18() *nn.Sequential { return ResNet18(2) }
