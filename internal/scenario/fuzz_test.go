package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseValidate fuzzes the scenario boundary: untrusted JSON must
// come back from Parse and Validate as errors, never as a panic, and a
// file Validate accepts must still validate after a Marshal/Parse
// round trip. Seeded from the example scenarios; plain `go test` runs
// the seed corpus only.
func FuzzParseValidate(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example scenarios to seed from (%v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := Parse(data)
		if err != nil {
			return
		}
		if errs := Validate(sf); len(errs) > 0 {
			return
		}
		again, err := json.Marshal(sf)
		if err != nil {
			t.Fatalf("valid scenario does not marshal: %v", err)
		}
		sf2, err := Parse(again)
		if err != nil {
			t.Fatalf("marshalled valid scenario does not parse: %v\n%s", err, again)
		}
		if errs := Validate(sf2); len(errs) > 0 {
			t.Fatalf("valid scenario fails validation after a round trip: %v\n%s", errs, again)
		}
	})
}
