package scanjournal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

func TestCacheKeyDiscrimination(t *testing.T) {
	base := map[string]string{"a.php": "<?php echo 1;", "b.php": "<?php echo 2;"}
	k0 := CacheKey(base, "fp")
	if k0 != CacheKey(map[string]string{"b.php": "<?php echo 2;", "a.php": "<?php echo 1;"}, "fp") {
		t.Error("key depends on map iteration order")
	}
	touched := map[string]string{"a.php": "<?php echo 1; ", "b.php": "<?php echo 2;"}
	if CacheKey(touched, "fp") == k0 {
		t.Error("touching a file did not change the key")
	}
	if CacheKey(base, "fp2") == k0 {
		t.Error("changing the options fingerprint did not change the key")
	}
	renamed := map[string]string{"c.php": "<?php echo 1;", "b.php": "<?php echo 2;"}
	if CacheKey(renamed, "fp") == k0 {
		t.Error("renaming a file did not change the key")
	}
	// Length framing: moving a byte across the name/content boundary must
	// not collide.
	if CacheKey(map[string]string{"ab": "c"}, "") == CacheKey(map[string]string{"a": "bc"}, "") {
		t.Error("structural collision across the name/content boundary")
	}
}

// TestCacheKeyDigest pins CacheKey's digest, so every key already in a
// cache directory or a journal still matches. The input holds an empty
// file and one longer than the buffer the key is hashed through.
func TestCacheKeyDigest(t *testing.T) {
	sources := map[string]string{
		"empty.php":  "",
		"long.php":   strings.Repeat("<?php echo 'long';\n", 1000),
		"upload.php": `<?php move_uploaded_file($_FILES["f"]["tmp_name"], "up/" . $_FILES["f"]["name"]);`,
	}
	if len(sources["long.php"]) <= keyBufSize {
		t.Fatalf("long.php is %d bytes, not longer than the %d-byte buffer", len(sources["long.php"]), keyBufSize)
	}
	const want = "6b5074e446bcb6cf5b977665cfc19205010062e87c236526861054ebf9a715e0"
	if got := CacheKey(sources, "opts-fingerprint\x00name\x00demo"); got != want {
		t.Errorf("CacheKey = %s, want %s", got, want)
	}
}

// TestCacheKeyAllocsIndependentOfSources: hashing copies no source, so a
// key over 50 files allocates as often as a key over one.
func TestCacheKeyAllocsIndependentOfSources(t *testing.T) {
	sources := func(n int) map[string]string {
		m := map[string]string{}
		for i := 0; i < n; i++ {
			m[fmt.Sprintf("f%02d.php", i)] = "<?php echo 1;"
		}
		return m
	}
	one, fifty := sources(1), sources(50)
	a1 := testing.AllocsPerRun(100, func() { CacheKey(one, "fp") })
	a50 := testing.AllocsPerRun(100, func() { CacheKey(fifty, "fp") })
	if a1 != a50 {
		t.Errorf("CacheKey allocates %v times for 1 source and %v for 50", a1, a50)
	}
}

func TestCachePutGet(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"), nil)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey(map[string]string{"a.php": "x"}, "fp")
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	payload := []byte(`{"Name":"app"}`)
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || string(got) != string(payload) {
		t.Fatalf("get = %q, %v", got, ok)
	}
}

func TestCacheCorruptEntryIsMissAndPruned(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey(map[string]string{"a.php": "x"}, "fp")
	if err := c.Put(key, []byte(`{"Name":"app"}`)); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: checksum now fails.
	p := c.path(key)
	data := readAll(t, p)
	data[6] ^= 0x40
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt entry not pruned")
	}
	// Self-heal: the next Put/Get cycle works.
	if err := c.Put(key, []byte(`{"Name":"app"}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); !ok {
		t.Error("cache did not self-heal after pruning")
	}
}

func TestCacheReadFaultInjection(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"),
		faultinject.ErrorOn(faultinject.CacheRead, ""))
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey(map[string]string{"a.php": "x"}, "fp")
	if err := c.Put(key, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Error("injected read fault must force a miss")
	}
}

func TestCacheVerify(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 3; i++ {
		key := CacheKey(map[string]string{"a.php": fmt.Sprint(i)}, "fp")
		keys = append(keys, key)
		if err := c.Put(key, []byte(fmt.Sprintf(`{"Name":"app%d"}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt one entry, add one stray non-entry file (ignored).
	bad := c.path(keys[1])
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	ok, badN, err := c.Verify(false)
	if err != nil || ok != 2 || badN != 1 {
		t.Fatalf("verify(keep) = %d ok, %d bad, %v; want 2/1", ok, badN, err)
	}
	if _, err := os.Stat(bad); err != nil {
		t.Error("verify(keep) removed the entry")
	}
	ok, badN, err = c.Verify(true)
	if err != nil || ok != 2 || badN != 1 {
		t.Fatalf("verify(remove) = %d ok, %d bad, %v; want 2/1", ok, badN, err)
	}
	if _, err := os.Stat(bad); !errors.Is(err, os.ErrNotExist) {
		t.Error("verify(remove) kept the corrupt entry")
	}
	if ok, badN, err := c.Verify(false); err != nil || ok != 2 || badN != 0 {
		t.Fatalf("post-prune verify = %d ok, %d bad, %v; want 2/0", ok, badN, err)
	}
}

// TestAtomicWrite is the satellite regression: a failed write must leave
// the previous file byte-identical and litter no temp files.
func TestAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.prom")
	if err := AtomicWrite(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "old content\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Injected mid-write failure: old file survives intact.
	boom := errors.New("disk on fire")
	err := AtomicWrite(path, func(w io.Writer) error {
		io.WriteString(w, "partial new conten")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if got := string(readAll(t, path)); got != "old content\n" {
		t.Fatalf("old file clobbered: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp litter left behind: %v", entries)
	}

	// A successful rewrite replaces the content.
	if err := AtomicWrite(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new content\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := string(readAll(t, path)); got != "new content\n" {
		t.Fatalf("rewrite = %q", got)
	}
}
