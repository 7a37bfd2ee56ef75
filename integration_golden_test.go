package biorank

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
)

// integrationGolden holds SHA-256 digests of the mediator's output: the
// graph-codec JSON of every Explore result (one digest per world, over
// all of its query proteins in order), of the IntegrateAll union graph
// that live mode serves, and of every protein's query graph as live mode
// carves it out of that union graph. Integration promises bit-identical
// graphs — node order, labels, probabilities and edge order — so a
// speed-up of the aligner, the profile scorer, the label index or the
// carve must leave every digest unchanged. BIORANK_GOLDEN_PRINT=1 prints
// the current digests.
var integrationGolden = map[string]string{
	"demo/explore":               "76c4cee0d18acfd7108f65994b88e8ca26b0bb8e584bbfe3b9ed0e6385756ec5",
	"demo/integrate-all":         "42d52283079071a9310e2aeb4b5c18f1b5b284367d5b92631222b08fd7fb77ac",
	"demo/live-carve":            "0d9fa335f8d53bad45b71886b1f97a6f32e6f52a96fa50270cff191ad141e557",
	"full/explore":               "5d025d69f42e6dcf787e59415f7dc6abad30e2d8b195a28397e0777e1ac6787e",
	"full/integrate-all":         "01ef4e182e8d430df4b01711110414bc6da3f58f53f767d5f2091649ea9237ff",
	"full/live-carve":            "5d025d69f42e6dcf787e59415f7dc6abad30e2d8b195a28397e0777e1ac6787e",
	"hypothetical/explore":       "be1421b43f76d2c378759619b456e8c89536acbbed778e8e6ef63933347e6354",
	"hypothetical/integrate-all": "c4883ee55cc464e6737bd122a500823e7981ac90ca085e4829e464e8985ebf0e",
	"hypothetical/live-carve":    "be1421b43f76d2c378759619b456e8c89536acbbed778e8e6ef63933347e6354",
}

// TestIntegrationGoldenTable integrates every query protein of the three
// demo worlds and requires the committed digests.
func TestIntegrationGoldenTable(t *testing.T) {
	worlds := []struct {
		name string
		new  func(uint64) (*System, error)
	}{
		{"demo", NewDemoSystem},
		{"hypothetical", NewHypotheticalSystem},
		{"full", NewFullSystem},
	}
	got := map[string]string{}
	for _, w := range worlds {
		sys, err := w.new(1)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, p := range sys.Proteins() {
			qg, err := sys.med.Explore(p)
			if err != nil {
				t.Fatalf("%s: explore %s: %v", w.name, p, err)
			}
			b, err := json.Marshal(qg)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s:%d:", p, len(b))
			h.Write(b)
		}
		got[w.name+"/explore"] = fmt.Sprintf("%x", h.Sum(nil))

		union, err := sys.med.IntegrateAll(sys.Proteins())
		if err != nil {
			t.Fatalf("%s: integrate all: %v", w.name, err)
		}
		b, err := json.Marshal(union)
		if err != nil {
			t.Fatal(err)
		}
		got[w.name+"/integrate-all"] = fmt.Sprintf("%x", sha256.Sum256(b))

		live, err := w.new(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := live.EnableLive(); err != nil {
			t.Fatalf("%s: enable live: %v", w.name, err)
		}
		h.Reset()
		for _, p := range live.Proteins() {
			qg, err := live.resolve(p)
			if err != nil {
				t.Fatalf("%s: live carve %s: %v", w.name, p, err)
			}
			b, err := json.Marshal(qg)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s:%d:", p, len(b))
			h.Write(b)
		}
		got[w.name+"/live-carve"] = fmt.Sprintf("%x", h.Sum(nil))
	}
	if os.Getenv("BIORANK_GOLDEN_PRINT") != "" {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("\t%q: %q,\n", n, got[n])
		}
	}
	for name, want := range integrationGolden {
		if got[name] != want {
			t.Errorf("%s: digest %s, golden %s", name, got[name], want)
		}
	}
	if len(integrationGolden) != len(got) {
		t.Errorf("golden table has %d entries, %d digests computed", len(integrationGolden), len(got))
	}
}
