package workload

import (
	"reflect"
	"testing"
)

// TestSuiteOperatorCounts pins the per-model operator totals to the counts
// the paper reports in §5.
func TestSuiteOperatorCounts(t *testing.T) {
	want := map[string]int{
		"ResNet18": 18, "MobileNetV2": 53, "EfficientNetB0": 82,
		"VGG16": 16, "ResNet50": 54, "VisionTransformer": 86,
		"FasterRCNN-MobileNetV3": 79, "YOLOv5": 60,
		"Transformer": 163, "BERT": 85, "Wav2Vec2": 109,
	}
	suite := Suite()
	if len(suite) != 11 {
		t.Fatalf("suite has %d models, want 11", len(suite))
	}
	for _, m := range suite {
		if got := m.TotalLayers(); got != want[m.Name] {
			t.Errorf("%s: %d operators, want %d", m.Name, got, want[m.Name])
		}
	}
}

func TestSuiteValidates(t *testing.T) {
	for _, m := range Suite() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestResNet18UniqueShapes(t *testing.T) {
	// The Fig. 6 walkthrough notes nine unique tensor shapes.
	if got := ResNet18().UniqueLayers(); got != 9 {
		t.Fatalf("ResNet18 unique layers = %d, want 9", got)
	}
}

func TestSuiteMACsPlausible(t *testing.T) {
	// Published MAC counts (ballpark): ResNet18 ~1.8G, VGG16 ~15.5G,
	// MobileNetV2 ~0.3G, ResNet50 ~4.1G. Our encodings must land within
	// ~35% of those (halo and head details shift the totals slightly).
	want := map[string]float64{
		"ResNet18": 1.8e9, "VGG16": 15.5e9, "MobileNetV2": 0.3e9, "ResNet50": 4.1e9,
	}
	for name, w := range want {
		m := ByName(name)
		got := float64(m.TotalMACs())
		if got < 0.65*w || got > 1.35*w {
			t.Errorf("%s MACs = %.3g, want ~%.3g", name, got, w)
		}
	}
}

func TestClassConstraints(t *testing.T) {
	for _, m := range Suite() {
		switch m.Class {
		case VisionLight:
			if m.MaxLatencyMs != 25 {
				t.Errorf("%s: light vision ceiling = %v", m.Name, m.MaxLatencyMs)
			}
		case VisionLarge:
			if m.MaxLatencyMs != 100 {
				t.Errorf("%s: large vision ceiling = %v", m.Name, m.MaxLatencyMs)
			}
		case NLP:
			if m.MaxLatencyMs < 100 {
				t.Errorf("%s: NLP ceiling = %v", m.Name, m.MaxLatencyMs)
			}
		}
	}
}

// TestByName: ByName builds exactly the model Suite lists under that name,
// and nothing for a name outside the suite.
func TestByName(t *testing.T) {
	for _, m := range Suite() {
		if got := ByName(m.Name); !reflect.DeepEqual(got, m) {
			t.Errorf("ByName(%q) = %+v, want Suite's %+v", m.Name, got, m)
		}
	}
	for _, name := range []string{"nope", "", "resnet18", ResNetConv52b().Name} {
		if m := ByName(name); m != nil {
			t.Errorf("ByName(%q) = %s, want nil", name, m.Name)
		}
	}
}

func TestResNetConv52bShape(t *testing.T) {
	m := ResNetConv52b()
	l := m.Layers[0]
	if l.K != 512 || l.C != 512 || l.Y != 7 || l.R != 3 {
		t.Fatalf("CONV5_2b shape wrong: %v", l)
	}
}

func TestMultiplicityWeighting(t *testing.T) {
	m := ResNet18()
	var unique int64
	for _, l := range m.Layers {
		unique += l.MACs()
	}
	if m.TotalMACs() <= unique {
		t.Fatal("multiplicity-weighted MACs must exceed unique-layer MACs")
	}
}
