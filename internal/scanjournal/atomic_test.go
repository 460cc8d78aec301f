package scanjournal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// assertNoTempFiles is the satellite regression contract: after any
// failed atomic replacement — injected write fault, injected rename
// fault, or a panicking writer — the destination directory must hold no
// *.tmp-* droppings.
func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("orphaned temp file survived: %s", e.Name())
		}
	}
}

func TestAtomicWriteFaultMatrix(t *testing.T) {
	cases := []struct {
		name string
		hook faultinject.Hook
		// write is the payload callback; nil means "write ok".
		write func(io.Writer) error
		// wantInjected asserts the error is ErrInjected-wrapped.
		wantInjected bool
	}{
		{
			name:         "injected-write-fault",
			hook:         faultinject.ErrorOn(faultinject.AtomicWriteBody, ""),
			wantInjected: true,
		},
		{
			name:         "injected-rename-fault",
			hook:         faultinject.ErrorOn(faultinject.AtomicRename, ""),
			wantInjected: true,
		},
		{
			name:  "writer-callback-error",
			write: func(io.Writer) error { return errors.New("disk full") },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			dst := filepath.Join(dir, "out.json")
			if err := os.WriteFile(dst, []byte("previous"), 0o644); err != nil {
				t.Fatal(err)
			}
			write := tc.write
			if write == nil {
				write = func(w io.Writer) error { _, err := w.Write([]byte("next")); return err }
			}
			err := AtomicWriteHook(dst, tc.hook, write)
			if err == nil {
				t.Fatal("fault did not surface")
			}
			if tc.wantInjected && !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("err = %v, want injected", err)
			}
			if got := readAll(t, dst); string(got) != "previous" {
				t.Errorf("destination damaged by failed replacement: %q", got)
			}
			assertNoTempFiles(t, dir)
		})
	}
}

// TestAtomicWritePanicCleanup is the orphan-file regression proper: the
// old cleanup keyed on the named error value, which stays nil while a
// panic unwinds, so a panicking write callback stranded the temp file
// (and its open handle) on every injected crash.
func TestAtomicWritePanicCleanup(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "out.json")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		AtomicWrite(dst, func(w io.Writer) error {
			w.Write([]byte("partial"))
			panic("injected writer crash")
		})
	}()
	assertNoTempFiles(t, dir)
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Errorf("destination materialized despite panic: %v", err)
	}
}

// TestCompactFaultCleanup: a compaction that dies at either atomic seam
// leaves the journal byte-identical and strands nothing.
func TestCompactFaultCleanup(t *testing.T) {
	for _, point := range []faultinject.Point{faultinject.AtomicWriteBody, faultinject.AtomicRename} {
		t.Run(string(point), func(t *testing.T) {
			path := writeJournal(t, 2)
			before := readAll(t, path)
			rec, err := Read(path)
			if err != nil {
				t.Fatal(err)
			}
			err = Compact(path, faultinject.ErrorOn(point, ""), rec.Records)
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("err = %v, want injected", err)
			}
			if got := readAll(t, path); string(got) != string(before) {
				t.Error("failed compaction damaged the journal")
			}
			assertNoTempFiles(t, filepath.Dir(path))
			// The journal is still fully readable and foldable.
			rec2, err := Read(path)
			if err != nil || rec2.Corrupt != nil || len(rec2.Records) != len(rec.Records) {
				t.Fatalf("journal unreadable after failed compaction: %v / %+v", err, rec2)
			}
		})
	}
}
