package recfile

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type testRec struct {
	Kind string `json:"kind"`
	N    int    `json:"n"`
}

// count returns a fold that counts the records it is shown.
func count(n *int) func(Record) error {
	*n = 0
	return func(r Record) error {
		*n++
		if r.Kind == "" {
			return errors.New("record without a kind")
		}
		return nil
	}
}

func TestCreateRefusesExistingAndLeavesNoPartialFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.log")
	l, err := Create(path, testRec{Kind: "head"})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)

	if _, err := Create(path, testRec{Kind: "head", N: 2}); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("Create over an existing log = %v, want an already-exists refusal", err)
	}
	if after, _ := os.ReadFile(path); string(after) != string(before) {
		t.Fatal("refused Create modified the existing log")
	}

	// A head record that cannot be encoded fails before anything is
	// visible: no file under the final name, no temp file left behind.
	bad := filepath.Join(dir, "b.log")
	if _, err := Create(bad, func() {}); err == nil {
		t.Fatal("Create with an unencodable head succeeded")
	}
	// Neither may a directory that vanished leave debris elsewhere.
	if _, err := Create(filepath.Join(dir, "missing", "c.log"), testRec{Kind: "head"}); err == nil {
		t.Fatal("Create in a missing directory succeeded")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 || entries[0].Name() != "a.log" {
		t.Fatalf("directory holds %v, want only a.log", entries)
	}
}

func TestOpenTruncatesTornTailAndAppendsAfterIt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, err := Create(path, testRec{Kind: "head"})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRec{Kind: "rec", N: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	whole, _ := os.ReadFile(path)
	torn, _ := Marshal(testRec{Kind: "rec", N: 2})
	if err := os.WriteFile(path, append(whole, torn[:len(torn)-7]...), 0o644); err != nil {
		t.Fatal(err)
	}

	var n int
	if tornTail, err := Load(path, "head", count(&n)); err != nil || !tornTail || n != 2 {
		t.Fatalf("Load = torn %v, %d records, err %v; want torn, 2 records", tornTail, n, err)
	}
	if data, _ := os.ReadFile(path); len(data) == len(whole) {
		t.Fatal("Load repaired the file; only Open may")
	}

	l, tornTail, err := Open(path, "head", count(&n))
	if err != nil || !tornTail || n != 2 {
		t.Fatalf("Open = torn %v, %d records, err %v; want torn, 2 records", tornTail, n, err)
	}
	if data, _ := os.ReadFile(path); string(data) != string(whole) {
		t.Fatal("Open did not truncate the torn tail to the last complete line")
	}
	if err := l.Append(testRec{Kind: "rec", N: 3}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if tornTail, err := Load(path, "head", count(&n)); err != nil || tornTail || n != 3 {
		t.Fatalf("after repair+append: torn %v, %d records, err %v; want clean, 3 records", tornTail, n, err)
	}
}

func TestInteriorCorruptionNamesRecordAndOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, err := Create(path, testRec{Kind: "head"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		l.Append(testRec{Kind: "rec", N: i})
	}
	l.Close()
	whole, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(whole), "\n")
	offset := len(lines[0]) + len(lines[1]) // start of record 3

	for name, mutate := range map[string]func([]byte){
		"checksum": func(b []byte) { b[offset+prefixLen+3] ^= 0x01 }, // a payload byte
		"length":   func(b []byte) { b[offset+7] = '0' },             // the length prefix
	} {
		data := append([]byte{}, whole...)
		mutate(data)
		os.WriteFile(path, data, 0o644)
		want := fmt.Sprintf("record 3 at offset %d", offset)
		if _, err := Load(path, "head", func(Record) error { return nil }); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Load = %v, want an error naming %q", name, err, want)
		}
		if l, _, err := Open(path, "head", func(Record) error { return nil }); err == nil {
			l.Close()
			t.Errorf("%s: Open accepted interior corruption", name)
		}
		if after, _ := os.ReadFile(path); string(after) != string(data) {
			t.Errorf("%s: a refused open modified the file", name)
		}
	}

	// A record the owner's fold rejects is reported the same way.
	os.WriteFile(path, whole, 0o644)
	n := 0
	_, err = Load(path, "head", func(Record) error {
		if n++; n == 2 {
			return errors.New("owner says no")
		}
		return nil
	})
	if want := fmt.Sprintf("record 2 at offset %d: owner says no", len(lines[0])); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("fold rejection = %v, want %q", err, want)
	}
}

func TestAppendAfterCloseErrors(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "a.log"), testRec{Kind: "head"})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after Close = %v, want nil", err)
	}
	if err := l.Append(testRec{Kind: "rec"}); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Append after Close = %v, want an already-closed error", err)
	}
}

func TestConcurrentAppendsProduceWholeLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, err := Create(path, testRec{Kind: "head"})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(testRec{Kind: "rec", N: w*each + i}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var n int
	if torn, err := Load(path, "head", count(&n)); err != nil || torn || n != 1+writers*each {
		t.Fatalf("Load = torn %v, %d records, err %v; want clean, %d records", torn, n, err, 1+writers*each)
	}
}
