package script

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary bytes to Parse, seeded from every committed
// scenario file. Parse must never panic, and any script it accepts must
// survive a JSON round trip: re-encoding it and parsing the result gives
// back an equal value, so what a script means never depends on how it was
// spelled.
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 30s ./internal/script/
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scripts", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no committed scripts found under scripts/*.json")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"events":[]}`))
	f.Add([]byte(`{"events":[{"at":5,"op":"cascade","count":2,"spacing":3}]}`))
	f.Add([]byte(`{"workload":{"interval":4},"events":[{"at":1,"op":"bogus"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted script does not re-encode: %v", err)
		}
		back, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-encoded script rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed the script:\n got %+v\nwant %+v", back, s)
		}
	})
}
