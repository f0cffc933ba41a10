package main

// seedFingerprints pins the Trace.Fingerprint of every suite model's
// ExplainableDSE-Codesign run at exp.Default() budgets and seed, as computed
// on the commit that introduced this benchmark. A change that alters any
// search result fails the benchmark's output check; a deliberate change of
// results must update these pins in the same commit.
var seedFingerprints = map[string]string{
	"ResNet18":               "3cbf9b5ae6889e09b3ef784d24aa23b6496b87c30b5b00317b5e536f0a11d953",
	"MobileNetV2":            "366fa5002d743dfe914570befca0d8778053c55274d09987dd9a15920ce32eb9",
	"EfficientNetB0":         "1057b062278200b2f3b140e65d01318fece433f6022e585f4c918809ce349c36",
	"VGG16":                  "b65fcc794fd73a297ba302a93d5c6d2de64b65aea90f2719180bc23e8ef5452b",
	"ResNet50":               "580a42fbdebfbac9534fee9921260796babfedc21963729a7e52079c952e2212",
	"VisionTransformer":      "f4a81877bfb29fc778f825e5ee468a2ae8a994415ed6cc52fab14f301d8b164e",
	"FasterRCNN-MobileNetV3": "c79a87712791e6a3701abd27db9ca466460d540bed5000552e4f21de296e2b71",
	"YOLOv5":                 "79150f3abfe25c7dc62fbe05af7200c9749e48c78b34013d935a58b57648f561",
	"Transformer":            "33594c757dec5ae9a3ae1755dc588cf3b542257f18c0e86e15494f1b57c8e89e",
	"BERT":                   "1fd4ef4c517b7a049adccc7a0b1ba8b6ae839a71224d0ffeec74c8aae443b540",
	"Wav2Vec2":               "f389a5802b01c7312c39230d01b0e9a7d3901f69f48178bb58e5e2d3f8d1fc75",
}
