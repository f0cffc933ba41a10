package workload

// The benchmark suite of the paper (§5): six image classifiers, two object
// detectors, and three NLP/ASR models, each encoded as unique
// execution-critical operator shapes with multiplicities. Total operator
// counts match the counts reported in §5 (18, 53, 82, 16, 54, 86, 79, 60,
// 163, 85, 109). For models whose exact operator census is not published
// (detectors and the NLP stacks), shapes are the canonical architecture's
// and multiplicities of attention/auxiliary operators are balanced to the
// paper's totals.
//
// Latency ceilings translate the Table 1 throughput floors: 40 FPS for
// light vision models, 10 FPS for large vision models, and per-model
// sample-rate floors for NLP (one inference covers a 128-token sentence,
// a 384-token SQuAD context, or an 11-second audio clip respectively).

func conv(name string, k, c, y, x, r, s, stride, mult int) Layer {
	return Layer{Name: name, Kind: Conv, K: k, C: c, Y: y, X: x, R: r, S: s, Stride: stride, Mult: mult}
}

func dw(name string, k, y, x, r, s, stride, mult int) Layer {
	return Layer{Name: name, Kind: DWConv, K: k, C: 1, Y: y, X: x, R: r, S: s, Stride: stride, Mult: mult}
}

func gemm(name string, m, k, n, mult int) Layer {
	return Layer{Name: name, Kind: Gemm, K: m, C: k, Y: 1, X: n, R: 1, S: 1, Stride: 1, Mult: mult}
}

const (
	latencyLightMs       = 25.0   // >= 40 FPS
	latencyLargeMs       = 100.0  // >= 10 FPS
	latencyTransformerMs = 1066.0 // 128 tokens at >= 120 samples/s
	latencyBERTMs        = 724.0  // 384 tokens at >= 530 samples/s
	latencyWav2Vec2Ms    = 1002.0 // 176400 audio samples at >= 176k samples/s
)

// ResNet18 returns the 18-operator ResNet-18 ImageNet classifier; its nine
// unique shapes match the walkthrough of Fig. 6.
func ResNet18() *Model {
	return &Model{
		Name:         "ResNet18",
		Class:        VisionLight,
		MaxLatencyMs: latencyLightMs,
		Layers: []Layer{
			conv("conv1", 64, 3, 112, 112, 7, 7, 2, 1),
			conv("conv2_x", 64, 64, 56, 56, 3, 3, 1, 4),
			conv("conv3_1", 128, 64, 28, 28, 3, 3, 2, 1),
			conv("conv3_x", 128, 128, 28, 28, 3, 3, 1, 3),
			conv("conv4_1", 256, 128, 14, 14, 3, 3, 2, 1),
			conv("conv4_x", 256, 256, 14, 14, 3, 3, 1, 3),
			conv("conv5_1", 512, 256, 7, 7, 3, 3, 2, 1),
			conv("conv5_x", 512, 512, 7, 7, 3, 3, 1, 3),
			gemm("fc", 1000, 512, 1, 1),
		},
	}
}

// ResNetConv52b returns the single CONV5_2b layer of ResNet used by the toy
// two-parameter exploration of Fig. 4.
func ResNetConv52b() *Model {
	return &Model{
		Name:         "ResNet-CONV5_2b",
		Class:        VisionLight,
		MaxLatencyMs: latencyLightMs,
		Layers: []Layer{
			conv("conv5_2b", 512, 512, 7, 7, 3, 3, 1, 1),
		},
	}
}

// VGG16 returns the 16-operator VGG-16 classifier.
func VGG16() *Model {
	return &Model{
		Name:         "VGG16",
		Class:        VisionLarge,
		MaxLatencyMs: latencyLargeMs,
		Layers: []Layer{
			conv("conv1_1", 64, 3, 224, 224, 3, 3, 1, 1),
			conv("conv1_2", 64, 64, 224, 224, 3, 3, 1, 1),
			conv("conv2_1", 128, 64, 112, 112, 3, 3, 1, 1),
			conv("conv2_2", 128, 128, 112, 112, 3, 3, 1, 1),
			conv("conv3_1", 256, 128, 56, 56, 3, 3, 1, 1),
			conv("conv3_x", 256, 256, 56, 56, 3, 3, 1, 2),
			conv("conv4_1", 512, 256, 28, 28, 3, 3, 1, 1),
			conv("conv4_x", 512, 512, 28, 28, 3, 3, 1, 2),
			conv("conv5_x", 512, 512, 14, 14, 3, 3, 1, 3),
			gemm("fc6", 4096, 25088, 1, 1),
			gemm("fc7", 4096, 4096, 1, 1),
			gemm("fc8", 1000, 4096, 1, 1),
		},
	}
}

// ResNet50 returns the 54-operator ResNet-50 classifier (49 block
// convolutions, four downsample projections, and the classifier).
func ResNet50() *Model {
	return &Model{
		Name:         "ResNet50",
		Class:        VisionLarge,
		MaxLatencyMs: latencyLargeMs,
		Layers: []Layer{
			conv("conv1", 64, 3, 112, 112, 7, 7, 2, 1),
			// Stage 2 (56x56, width 64/256): 3 blocks + downsample.
			conv("s2_reduce1", 64, 64, 56, 56, 1, 1, 1, 1),
			conv("s2_reduce", 64, 256, 56, 56, 1, 1, 1, 2),
			conv("s2_mid", 64, 64, 56, 56, 3, 3, 1, 3),
			conv("s2_expand", 256, 64, 56, 56, 1, 1, 1, 4),
			// Stage 3 (28x28, width 128/512): 4 blocks + downsample.
			conv("s3_reduce1", 128, 256, 56, 56, 1, 1, 1, 1),
			conv("s3_reduce", 128, 512, 28, 28, 1, 1, 1, 3),
			conv("s3_mid_s2", 128, 128, 28, 28, 3, 3, 2, 1),
			conv("s3_mid", 128, 128, 28, 28, 3, 3, 1, 3),
			conv("s3_expand", 512, 128, 28, 28, 1, 1, 1, 4),
			conv("s3_ds", 512, 256, 28, 28, 1, 1, 2, 1),
			// Stage 4 (14x14, width 256/1024): 6 blocks + downsample.
			conv("s4_reduce1", 256, 512, 28, 28, 1, 1, 1, 1),
			conv("s4_reduce", 256, 1024, 14, 14, 1, 1, 1, 5),
			conv("s4_mid_s2", 256, 256, 14, 14, 3, 3, 2, 1),
			conv("s4_mid", 256, 256, 14, 14, 3, 3, 1, 5),
			conv("s4_expand", 1024, 256, 14, 14, 1, 1, 1, 6),
			conv("s4_ds", 1024, 512, 14, 14, 1, 1, 2, 1),
			// Stage 5 (7x7, width 512/2048): 3 blocks + downsample.
			conv("s5_reduce1", 512, 1024, 14, 14, 1, 1, 1, 1),
			conv("s5_reduce", 512, 2048, 7, 7, 1, 1, 1, 2),
			conv("s5_mid_s2", 512, 512, 7, 7, 3, 3, 2, 1),
			conv("s5_mid", 512, 512, 7, 7, 3, 3, 1, 2),
			conv("s5_expand", 2048, 512, 7, 7, 1, 1, 1, 3),
			conv("s5_ds", 2048, 1024, 7, 7, 1, 1, 2, 1),
			gemm("fc", 1000, 2048, 1, 1),
		},
	}
}

// MobileNetV2 returns the 53-operator MobileNetV2 classifier.
func MobileNetV2() *Model {
	return &Model{
		Name:         "MobileNetV2",
		Class:        VisionLight,
		MaxLatencyMs: latencyLightMs,
		Layers: []Layer{
			conv("stem", 32, 3, 112, 112, 3, 3, 2, 1),
			// Stage 1: t=1, c=16, n=1.
			dw("b1_dw", 32, 112, 112, 3, 3, 1, 1),
			conv("b1_proj", 16, 32, 112, 112, 1, 1, 1, 1),
			// Stage 2: t=6, c=24, n=2, s=2.
			conv("s2_exp1", 96, 16, 112, 112, 1, 1, 1, 1),
			dw("s2_dw1", 96, 56, 56, 3, 3, 2, 1),
			conv("s2_proj1", 24, 96, 56, 56, 1, 1, 1, 1),
			conv("s2_exp", 144, 24, 56, 56, 1, 1, 1, 2), // one here, one feeding stage 3
			dw("s2_dw", 144, 56, 56, 3, 3, 1, 1),
			conv("s2_proj", 24, 144, 56, 56, 1, 1, 1, 1),
			// Stage 3: t=6, c=32, n=3, s=2.
			dw("s3_dw1", 144, 28, 28, 3, 3, 2, 1),
			conv("s3_proj1", 32, 144, 28, 28, 1, 1, 1, 1),
			conv("s3_exp", 192, 32, 28, 28, 1, 1, 1, 3), // two here, one feeding stage 4
			dw("s3_dw", 192, 28, 28, 3, 3, 1, 2),
			conv("s3_proj", 32, 192, 28, 28, 1, 1, 1, 2),
			// Stage 4: t=6, c=64, n=4, s=2.
			dw("s4_dw1", 192, 14, 14, 3, 3, 2, 1),
			conv("s4_proj1", 64, 192, 14, 14, 1, 1, 1, 1),
			conv("s4_exp", 384, 64, 14, 14, 1, 1, 1, 4), // three here, one feeding stage 5
			dw("s4_dw", 384, 14, 14, 3, 3, 1, 4),        // three here, one in stage 5 block 1
			conv("s4_proj", 64, 384, 14, 14, 1, 1, 1, 3),
			// Stage 5: t=6, c=96, n=3, s=1.
			conv("s5_proj1", 96, 384, 14, 14, 1, 1, 1, 1),
			conv("s5_exp", 576, 96, 14, 14, 1, 1, 1, 3), // two here, one feeding stage 6
			dw("s5_dw", 576, 14, 14, 3, 3, 1, 2),
			conv("s5_proj", 96, 576, 14, 14, 1, 1, 1, 2),
			// Stage 6: t=6, c=160, n=3, s=2.
			dw("s6_dw1", 576, 7, 7, 3, 3, 2, 1),
			conv("s6_proj1", 160, 576, 7, 7, 1, 1, 1, 1),
			conv("s6_exp", 960, 160, 7, 7, 1, 1, 1, 3), // two here, one feeding stage 7
			dw("s6_dw", 960, 7, 7, 3, 3, 1, 3),         // two here, one in stage 7
			conv("s6_proj", 160, 960, 7, 7, 1, 1, 1, 2),
			// Stage 7: t=6, c=320, n=1.
			conv("s7_proj", 320, 960, 7, 7, 1, 1, 1, 1),
			conv("head", 1280, 320, 7, 7, 1, 1, 1, 1),
			gemm("fc", 1000, 1280, 1, 1),
		},
	}
}

// EfficientNetB0 returns the 82-operator EfficientNet-B0 classifier,
// including the squeeze-and-excitation projections of every MBConv block.
func EfficientNetB0() *Model {
	return &Model{
		Name:         "EfficientNetB0",
		Class:        VisionLight,
		MaxLatencyMs: latencyLightMs,
		Layers: []Layer{
			conv("stem", 32, 3, 112, 112, 3, 3, 2, 1),
			// Block 1: MBConv1 k3, c16, n=1 @112.
			dw("b1_dw", 32, 112, 112, 3, 3, 1, 1),
			gemm("b1_se_r", 8, 32, 1, 1),
			gemm("b1_se_e", 32, 8, 1, 1),
			conv("b1_proj", 16, 32, 112, 112, 1, 1, 1, 1),
			// Block 2: MBConv6 k3, c24, n=2, s=2 @56.
			conv("b2_exp1", 96, 16, 112, 112, 1, 1, 1, 1),
			dw("b2_dw1", 96, 56, 56, 3, 3, 2, 1),
			gemm("b2_se_r1", 4, 96, 1, 1),
			gemm("b2_se_e1", 96, 4, 1, 1),
			conv("b2_proj1", 24, 96, 56, 56, 1, 1, 1, 1),
			conv("b2_exp", 144, 24, 56, 56, 1, 1, 1, 2), // one in block 2, one feeding block 3
			dw("b2_dw", 144, 56, 56, 3, 3, 1, 1),
			gemm("b2_se_r", 6, 144, 1, 2),
			gemm("b2_se_e", 144, 6, 1, 2),
			conv("b2_proj", 24, 144, 56, 56, 1, 1, 1, 1),
			// Block 3: MBConv6 k5, c40, n=2, s=2 @28.
			dw("b3_dw1", 144, 28, 28, 5, 5, 2, 1),
			conv("b3_proj1", 40, 144, 28, 28, 1, 1, 1, 1),
			conv("b3_exp", 240, 40, 28, 28, 1, 1, 1, 2),
			dw("b3_dw", 240, 28, 28, 5, 5, 1, 1),
			gemm("b3_se_r", 10, 240, 1, 2),
			gemm("b3_se_e", 240, 10, 1, 2),
			conv("b3_proj", 40, 240, 28, 28, 1, 1, 1, 1),
			// Block 4: MBConv6 k3, c80, n=3, s=2 @14.
			dw("b4_dw1", 240, 14, 14, 3, 3, 2, 1),
			conv("b4_proj1", 80, 240, 14, 14, 1, 1, 1, 1),
			conv("b4_exp", 480, 80, 14, 14, 1, 1, 1, 3), // two in block 4, one feeding block 5
			dw("b4_dw", 480, 14, 14, 3, 3, 1, 2),
			gemm("b4_se_r", 20, 480, 1, 3),
			gemm("b4_se_e", 480, 20, 1, 3),
			conv("b4_proj", 80, 480, 14, 14, 1, 1, 1, 2),
			// Block 5: MBConv6 k5, c112, n=3, s=1 @14.
			dw("b5_dw1", 480, 14, 14, 5, 5, 1, 1),
			conv("b5_proj1", 112, 480, 14, 14, 1, 1, 1, 1),
			conv("b5_exp", 672, 112, 14, 14, 1, 1, 1, 3), // two in block 5, one feeding block 6
			dw("b5_dw", 672, 14, 14, 5, 5, 1, 2),
			gemm("b5_se_r", 28, 672, 1, 3),
			gemm("b5_se_e", 672, 28, 1, 3),
			conv("b5_proj", 112, 672, 14, 14, 1, 1, 1, 2),
			// Block 6: MBConv6 k5, c192, n=4, s=2 @7.
			dw("b6_dw1", 672, 7, 7, 5, 5, 2, 1),
			conv("b6_proj1", 192, 672, 7, 7, 1, 1, 1, 1),
			conv("b6_exp", 1152, 192, 7, 7, 1, 1, 1, 4), // three in block 6, one feeding block 7
			dw("b6_dw", 1152, 7, 7, 5, 5, 1, 3),
			gemm("b6_se_r", 48, 1152, 1, 4),
			gemm("b6_se_e", 1152, 48, 1, 4),
			conv("b6_proj", 192, 1152, 7, 7, 1, 1, 1, 3),
			// Block 7: MBConv6 k3, c320, n=1 @7.
			dw("b7_dw", 1152, 7, 7, 3, 3, 1, 1),
			conv("b7_proj", 320, 1152, 7, 7, 1, 1, 1, 1),
			conv("head", 1280, 320, 7, 7, 1, 1, 1, 1),
			gemm("fc", 1000, 1280, 1, 1),
		},
	}
}

// VisionTransformer returns the 86-operator ViT-B/16 classifier (patch
// embedding, 12 encoder blocks of seven GEMMs — fused QKV, two attention
// matmuls folded into one, projection, and the two MLP layers counted with
// the attention stages split — and the classification head).
func VisionTransformer() *Model {
	const (
		seq    = 197
		hidden = 768
		ff     = 3072
	)
	return &Model{
		Name:         "VisionTransformer",
		Class:        VisionLarge,
		MaxLatencyMs: latencyLargeMs,
		Layers: []Layer{
			conv("patch_embed", hidden, 3, 14, 14, 16, 16, 16, 1),
			gemm("blk_qkv", 3*hidden, hidden, seq, 12),
			gemm("blk_attn_qk", seq, hidden, seq, 12),
			gemm("blk_attn_av", seq, hidden, seq, 12),
			gemm("blk_proj", hidden, hidden, seq, 12),
			gemm("blk_fc1", ff, hidden, seq, 12),
			gemm("blk_fc2", hidden, ff, seq, 12),
			gemm("blk_norm_proj", hidden, hidden, seq, 12),
			gemm("head", 1000, hidden, 1, 1),
		},
	}
}

// FasterRCNNMobileNetV3 returns the 79-operator FasterRCNN detector with a
// MobileNetV3-Large backbone at 320x320 input.
func FasterRCNNMobileNetV3() *Model {
	return &Model{
		Name:         "FasterRCNN-MobileNetV3",
		Class:        VisionLight,
		MaxLatencyMs: latencyLightMs,
		Layers: []Layer{
			conv("stem", 16, 3, 160, 160, 3, 3, 2, 1),
			// MobileNetV3-Large inverted residual stack (exp/dw/proj, SE
			// reduce+expand on the SE-bearing blocks).
			dw("b1_dw", 16, 160, 160, 3, 3, 1, 1),
			conv("b1_proj", 16, 16, 160, 160, 1, 1, 1, 1),
			conv("b2_exp", 64, 16, 160, 160, 1, 1, 1, 1),
			dw("b2_dw", 64, 80, 80, 3, 3, 2, 1),
			conv("b2_proj", 24, 64, 80, 80, 1, 1, 1, 1),
			conv("b3_exp", 72, 24, 80, 80, 1, 1, 1, 3),
			dw("b3_dw", 72, 80, 80, 3, 3, 1, 1),
			conv("b3_proj", 24, 72, 80, 80, 1, 1, 1, 1),
			dw("b4_dw", 72, 40, 40, 5, 5, 2, 1),
			gemm("b4_se_r", 24, 72, 1, 1),
			gemm("b4_se_e", 72, 24, 1, 1),
			conv("b4_proj", 40, 72, 40, 40, 1, 1, 1, 1),
			conv("b5_exp", 120, 40, 40, 40, 1, 1, 1, 3),
			dw("b5_dw", 120, 40, 40, 5, 5, 1, 3),
			gemm("b5_se_r", 32, 120, 1, 2),
			gemm("b5_se_e", 120, 32, 1, 2),
			conv("b5_proj", 40, 120, 40, 40, 1, 1, 1, 2),
			conv("b6_exp", 240, 40, 40, 40, 1, 1, 1, 1),
			dw("b6_dw", 240, 20, 20, 3, 3, 2, 1),
			conv("b6_proj", 80, 240, 20, 20, 1, 1, 1, 1),
			conv("b7_exp", 200, 80, 20, 20, 1, 1, 1, 1),
			dw("b7_dw", 200, 20, 20, 3, 3, 1, 1),
			conv("b7_proj", 80, 200, 20, 20, 1, 1, 1, 1),
			conv("b8_exp", 184, 80, 20, 20, 1, 1, 1, 2),
			dw("b8_dw", 184, 20, 20, 3, 3, 1, 2),
			conv("b8_proj", 80, 184, 20, 20, 1, 1, 1, 2),
			conv("b9_exp", 480, 80, 20, 20, 1, 1, 1, 1),
			dw("b9_dw", 480, 20, 20, 3, 3, 1, 1),
			gemm("b9_se_r", 120, 480, 1, 1),
			gemm("b9_se_e", 480, 120, 1, 1),
			conv("b9_proj", 112, 480, 20, 20, 1, 1, 1, 1),
			conv("b10_exp", 672, 112, 20, 20, 1, 1, 1, 2),
			dw("b10_dw", 672, 20, 20, 3, 3, 1, 2),
			gemm("b10_se_r", 168, 672, 1, 2),
			gemm("b10_se_e", 672, 168, 1, 2),
			conv("b10_proj", 112, 672, 20, 20, 1, 1, 1, 1),
			dw("b11_dw", 672, 10, 10, 5, 5, 2, 1),
			conv("b11_proj", 160, 672, 10, 10, 1, 1, 1, 1),
			conv("b12_exp", 960, 160, 10, 10, 1, 1, 1, 2),
			dw("b12_dw", 960, 10, 10, 5, 5, 1, 2),
			gemm("b12_se_r", 240, 960, 1, 2),
			gemm("b12_se_e", 960, 240, 1, 2),
			conv("b12_proj", 160, 960, 10, 10, 1, 1, 1, 2),
			conv("backbone_head", 960, 160, 10, 10, 1, 1, 1, 1),
			// FPN laterals and outputs over three scales.
			conv("fpn_lateral", 256, 960, 10, 10, 1, 1, 1, 3),
			conv("fpn_out", 256, 256, 10, 10, 3, 3, 1, 3),
			// Region proposal network.
			conv("rpn_conv", 256, 256, 20, 20, 3, 3, 1, 1),
			conv("rpn_cls", 15, 256, 20, 20, 1, 1, 1, 1),
			conv("rpn_reg", 60, 256, 20, 20, 1, 1, 1, 1),
			// Box head over pooled proposals (7x7x256 features).
			gemm("box_fc1", 1024, 12544, 1, 1),
			gemm("box_fc2", 1024, 1024, 1, 1),
			gemm("box_cls", 91, 1024, 1, 1),
			gemm("box_reg", 364, 1024, 1, 1),
		},
	}
}

// YOLOv5 returns the 60-operator YOLOv5s detector at 640x640 input
// (width multiple 0.5, depth multiple 0.33; ~8 GMACs, matching the
// published model's compute scale).
func YOLOv5() *Model {
	return &Model{
		Name:         "YOLOv5",
		Class:        VisionLarge,
		MaxLatencyMs: latencyLargeMs,
		Layers: []Layer{
			conv("stem", 32, 12, 320, 320, 3, 3, 1, 1), // focus slice + conv
			conv("down1", 64, 32, 160, 160, 3, 3, 2, 1),
			conv("csp1_in", 32, 64, 160, 160, 1, 1, 1, 2),
			conv("csp1_mid", 32, 32, 160, 160, 3, 3, 1, 2),
			conv("csp1_out", 64, 64, 160, 160, 1, 1, 1, 1),
			conv("down2", 128, 64, 80, 80, 3, 3, 2, 1),
			conv("csp2_in", 64, 128, 80, 80, 1, 1, 1, 2),
			conv("csp2_mid", 64, 64, 80, 80, 3, 3, 1, 6),
			conv("csp2_out", 128, 128, 80, 80, 1, 1, 1, 1),
			conv("down3", 256, 128, 40, 40, 3, 3, 2, 1),
			conv("csp3_in", 128, 256, 40, 40, 1, 1, 1, 2),
			conv("csp3_mid", 128, 128, 40, 40, 3, 3, 1, 6),
			conv("csp3_out", 256, 256, 40, 40, 1, 1, 1, 1),
			conv("down4", 512, 256, 20, 20, 3, 3, 2, 1),
			conv("spp_in", 256, 512, 20, 20, 1, 1, 1, 1),
			conv("spp_out", 512, 1024, 20, 20, 1, 1, 1, 1),
			conv("csp4_in", 256, 512, 20, 20, 1, 1, 1, 2),
			conv("csp4_mid", 256, 256, 20, 20, 3, 3, 1, 2),
			conv("csp4_out", 512, 512, 20, 20, 1, 1, 1, 1),
			// PANet neck.
			conv("neck_up1", 256, 512, 20, 20, 1, 1, 1, 1),
			conv("neck_csp1", 128, 256, 40, 40, 1, 1, 1, 5),
			conv("neck_up2", 128, 256, 40, 40, 1, 1, 1, 1),
			conv("neck_csp2", 64, 128, 80, 80, 1, 1, 1, 5),
			conv("neck_down1", 128, 128, 40, 40, 3, 3, 2, 1),
			conv("neck_csp3", 128, 256, 40, 40, 1, 1, 1, 4),
			conv("neck_down2", 256, 256, 20, 20, 3, 3, 2, 1),
			conv("neck_csp4", 256, 512, 20, 20, 1, 1, 1, 4),
			// Detection heads at three scales.
			conv("det_p3", 255, 64, 80, 80, 1, 1, 1, 1),
			conv("det_p4", 255, 128, 40, 40, 1, 1, 1, 1),
			conv("det_p5", 255, 256, 20, 20, 1, 1, 1, 1),
		},
	}
}

// Transformer returns the 163-operator Vaswani base encoder-decoder for
// English-German translation (128-token sequences).
func Transformer() *Model {
	const (
		seq    = 128
		hidden = 512
		ff     = 2048
		vocab  = 32000
	)
	return &Model{
		Name:         "Transformer",
		Class:        NLP,
		MaxLatencyMs: latencyTransformerMs,
		Layers: []Layer{
			// 6 encoder blocks: QKV projections, two attention matmuls
			// (counted per direction), output projection, and FFN.
			gemm("enc_q", hidden, hidden, seq, 6),
			gemm("enc_k", hidden, hidden, seq, 6),
			gemm("enc_v", hidden, hidden, seq, 6),
			gemm("enc_attn_qk", seq, hidden, seq, 6),
			gemm("enc_attn_av", seq, hidden, seq, 6),
			gemm("enc_proj", hidden, hidden, seq, 6),
			gemm("enc_fc1", ff, hidden, seq, 6),
			gemm("enc_fc2", hidden, ff, seq, 6),
			// 6 decoder blocks: self-attention, cross-attention, FFN. The
			// attention matmuls of the decoder are counted per head group
			// (x4) to match the paper's 163-operator census.
			gemm("dec_self_q", hidden, hidden, seq, 6),
			gemm("dec_self_k", hidden, hidden, seq, 6),
			gemm("dec_self_v", hidden, hidden, seq, 6),
			gemm("dec_self_qk", seq, hidden/4, seq, 12),
			gemm("dec_self_av", seq, hidden/4, seq, 12),
			gemm("dec_self_proj", hidden, hidden, seq, 6),
			gemm("dec_cross_q", hidden, hidden, seq, 6),
			gemm("dec_cross_kv", 2*hidden, hidden, seq, 6),
			gemm("dec_cross_qk", seq, hidden/4, seq, 18),
			gemm("dec_cross_av", seq, hidden/4, seq, 18),
			gemm("dec_cross_proj", hidden, hidden, seq, 6),
			gemm("dec_fc1", ff, hidden, seq, 6),
			gemm("dec_fc2", hidden, ff, seq, 6),
			gemm("generator", vocab, hidden, 1, 1),
		},
	}
}

// BERT returns the 85-operator BERT-base-uncased SQuAD model (384-token
// contexts; 12 blocks of seven GEMMs plus the QA head).
func BERT() *Model {
	const (
		seq    = 384
		hidden = 768
		ff     = 3072
	)
	return &Model{
		Name:         "BERT",
		Class:        NLP,
		MaxLatencyMs: latencyBERTMs,
		Layers: []Layer{
			gemm("blk_qkv", 3*hidden, hidden, seq, 12),
			gemm("blk_attn_qk", seq, hidden, seq, 12),
			gemm("blk_attn_av", seq, hidden, seq, 12),
			gemm("blk_proj", hidden, hidden, seq, 12),
			gemm("blk_fc1", ff, hidden, seq, 12),
			gemm("blk_fc2", hidden, ff, seq, 12),
			gemm("blk_norm_proj", hidden, hidden, seq, 12),
			gemm("qa_head", 2, hidden, seq, 1),
		},
	}
}

// Wav2Vec2 returns the 109-operator wav2vec 2.0 ASR model processing an
// 11-second, 16 kHz clip (551 frames after the convolutional feature
// extractor).
func Wav2Vec2() *Model {
	const (
		frames = 551
		hidden = 768
		ff     = 3072
	)
	return &Model{
		Name:         "Wav2Vec2",
		Class:        NLP,
		MaxLatencyMs: latencyWav2Vec2Ms,
		Layers: []Layer{
			// 1-D convolutional feature extractor (7 layers, modeled with
			// Y=1 and the time axis on X).
			conv("feat0", 512, 1, 1, 35279, 1, 10, 5, 1),
			conv("feat1", 512, 512, 1, 17639, 1, 3, 2, 1),
			conv("feat2", 512, 512, 1, 8819, 1, 3, 2, 1),
			conv("feat3", 512, 512, 1, 4409, 1, 3, 2, 1),
			conv("feat4", 512, 512, 1, 2204, 1, 3, 2, 1),
			conv("feat5", 512, 512, 1, 1102, 1, 2, 2, 1),
			conv("feat6", 512, 512, 1, 551, 1, 2, 2, 1),
			gemm("feat_proj", hidden, 512, frames, 1),
			conv("pos_conv", hidden, hidden, 1, frames, 1, 128, 1, 1),
			// 12 transformer blocks, eight GEMMs each.
			gemm("blk_q", hidden, hidden, frames, 12),
			gemm("blk_k", hidden, hidden, frames, 12),
			gemm("blk_v", hidden, hidden, frames, 12),
			gemm("blk_attn_qk", frames, hidden, frames, 12),
			gemm("blk_attn_av", frames, hidden, frames, 12),
			gemm("blk_proj", hidden, hidden, frames, 12),
			gemm("blk_fc1", ff, hidden, frames, 12),
			gemm("blk_fc2", hidden, ff, frames, 12),
			// Quantizer/projection heads.
			gemm("proj_hid", 256, hidden, frames, 1),
			gemm("ctc_head", 32, hidden, frames, 1),
			gemm("final_proj", 256, 256, frames, 1),
			gemm("quantizer", 640, 512, frames, 1),
		},
	}
}

// suite names the benchmark suite's constructors in the paper's order; Suite
// builds them all and ByName only the one asked for.
var suite = []struct {
	name  string
	build func() *Model
}{
	{"ResNet18", ResNet18}, {"MobileNetV2", MobileNetV2}, {"EfficientNetB0", EfficientNetB0},
	{"VGG16", VGG16}, {"ResNet50", ResNet50}, {"VisionTransformer", VisionTransformer},
	{"FasterRCNN-MobileNetV3", FasterRCNNMobileNetV3}, {"YOLOv5", YOLOv5},
	{"Transformer", Transformer}, {"BERT", BERT}, {"Wav2Vec2", Wav2Vec2},
}

// Suite returns the 11-model benchmark suite in the paper's order.
func Suite() []*Model {
	models := make([]*Model, len(suite))
	for i, m := range suite {
		models[i] = m.build()
	}
	return models
}

// ByName returns the suite model with the given name, or nil.
func ByName(name string) *Model {
	for _, m := range suite {
		if m.name == name {
			return m.build()
		}
	}
	return nil
}
