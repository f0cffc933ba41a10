package evalcache_test

import (
	"strings"
	"testing"

	"xdse/internal/evalcache"
	"xdse/internal/fleet"
	"xdse/internal/mapping"
)

// goldenLines maps each fleet.ProtocolVersion since records became
// fixed-field lines to AppendRecord's line for goldenRecord under the
// fixture's version stamp. Stores and fleet peers of different builds read
// each other's lines, so a layout change needs a new tag (the payload's
// first field) and a protocol bump: add a row for the new version.
//
// Protocol 5 changed the /eval body around the lines, not the lines, so its
// row holds protocol 4's line.
var goldenLines = map[int]string{
	4: "00413d1f r1 d87437e997a47f0a pruned-mappings 200 0 0 0|64,64,56,56,3,3|1 pe256,l1:128,l2:524288,noc16,bpc256/125,W:4x64,I:4x64,Ord:4x64,Owr:4x64 1 64,1,1,1,4,1,16,1,1,1,1,56,1,1,56,1,1,3,1,1,1,3,1,1 0 2 200\n",
	5: "00413d1f r1 d87437e997a47f0a pruned-mappings 200 0 0 0|64,64,56,56,3,3|1 pe256,l1:128,l2:524288,noc16,bpc256/125,W:4x64,I:4x64,Ord:4x64,Owr:4x64 1 64,1,1,1,4,1,16,1,1,1,1,56,1,1,56,1,1,3,1,1,1,3,1,1 0 2 200\n",
}

// goldenRecord is the pruned-mappings record of testdata/parent-records.jsonl.
var goldenRecord = evalcache.Record{
	Key: evalcache.Key{
		Shape:  "0|64,64,56,56,3,3|1",
		Sub:    "pe256,l1:128,l2:524288,noc16,bpc256/125,W:4x64,I:4x64,Ord:4x64,Owr:4x64",
		Mode:   "pruned-mappings",
		Trials: 200,
	},
	Entry: evalcache.Entry{
		Found: true,
		Mapping: mapping.Mapping{
			F:              [mapping.NumDims][mapping.NumLevels]int{{64, 1, 1, 1}, {4, 1, 16, 1}, {1, 1, 1, 56}, {1, 1, 56, 1}, {1, 3, 1, 1}, {1, 3, 1, 1}},
			DRAMStationary: 0,
			NoCStationary:  2,
		},
		Trials: 200,
	},
}

// TestRecordLineGolden pins the record line byte for byte under the current
// fleet.ProtocolVersion, and checks that lines of different layouts carry
// different tags.
func TestRecordLineGolden(t *testing.T) {
	want, ok := goldenLines[fleet.ProtocolVersion]
	if !ok {
		t.Fatalf("no golden line for fleet.ProtocolVersion %d", fleet.ProtocolVersion)
	}
	data, err := evalcache.AppendRecord(nil, goldenRecord, "d87437e997a47f0a")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != want {
		t.Fatalf("record line changed under protocol %d; a new layout needs a new tag and protocol version:\n got  %q\n want %q",
			fleet.ProtocolVersion, data, want)
	}
	tag := func(line string) string { return strings.Fields(line)[1] }
	for p, a := range goldenLines {
		for q, b := range goldenLines {
			if a != b && tag(a) == tag(b) {
				t.Errorf("protocols %d and %d write different lines under one tag %q", p, q, tag(a))
			}
		}
	}
}
