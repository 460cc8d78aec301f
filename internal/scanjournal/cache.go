// Content-addressed result cache: unchanged targets are skipped on
// re-runs with byte-identical reports.
//
// The cache key is a SHA-256 over the target's sorted file contents, the
// scan-options fingerprint (budgets, retries, extensions, …) and the
// cache format version — so touching one file invalidates exactly that
// target, and changing any option that could alter a report invalidates
// everything. Entries are stored as checksummed frames written
// atomically; a corrupt, truncated or unreadable entry is a cache miss
// (and is pruned best-effort), never an error — the cache is an
// optimization, and the scan is always the fallback.
package scanjournal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/faultinject"
)

// keyBufSize is the size of the buffer CacheKey feeds the hash through.
const keyBufSize = 4 << 10

// CacheKey derives the content address of one target: SHA-256 over the
// format version, the options fingerprint and the sorted (name, content)
// pairs, with unambiguous length framing so no two distinct inputs
// collide structurally. Every part goes through one fixed buffer: the
// digest has no WriteString, and io.WriteString would copy each source
// whole into a fresh byte slice.
func CacheKey(sources map[string]string, fingerprint string) string {
	h := sha256.New()
	buf := make([]byte, keyBufSize)
	writePart := func(s string) {
		binary.BigEndian.PutUint64(buf, uint64(len(s)))
		h.Write(buf[:8])
		for len(s) > 0 {
			n := copy(buf, s)
			h.Write(buf[:n])
			s = s[n:]
		}
	}
	writePart(fmt.Sprintf("uchecker-cache-v%d", FormatVersion))
	writePart(fingerprint)
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		writePart(n)
		writePart(sources[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Cache is a directory of framed report blobs keyed by content address.
// Safe for concurrent use: entries are immutable once renamed into
// place, and concurrent Puts of the same key write identical bytes.
type Cache struct {
	dir  string
	hook faultinject.Hook
}

// entryExt marks cache entry files, so Verify can ignore strays.
const entryExt = ".rep"

// OpenCache opens (creating if needed) a cache directory. hook, when
// non-nil, fires at the faultinject.CacheRead seam of every Get.
func OpenCache(dir string, hook faultinject.Hook) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("scanjournal: cache dir %s: %w", dir, err)
	}
	return &Cache{dir: dir, hook: hook}, nil
}

func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+entryExt) }

// Get returns the cached payload for key, or ok=false on any miss —
// including a corrupt or unreadable entry, which is pruned best-effort
// so the follow-up Put self-heals the cache.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c.hook != nil {
		if err := c.hook(faultinject.CacheRead, key); err != nil {
			return nil, false
		}
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	payload, err := Unframe(data)
	if err != nil {
		os.Remove(c.path(key)) // corrupt entry: prune so Put self-heals
		return nil, false
	}
	return payload, true
}

// Put stores a payload under key, atomically. Errors are returned for
// accounting but a failed Put only costs a future re-scan. The cache's
// fault hook fires at the AtomicWriteBody/AtomicRename seams, so a Put
// killed mid-replacement is a crash-matrix boundary like any other.
func (c *Cache) Put(key string, payload []byte) error {
	return AtomicWriteHook(c.path(key), c.hook, func(w io.Writer) error {
		return WriteFrame(w, payload)
	})
}

// Verify walks every cache entry and validates its frame (length and
// checksum) and that its file name matches a plausible content address.
// With remove set, invalid entries are deleted. It returns the counts of
// valid and invalid entries.
func (c *Cache) Verify(remove bool) (ok, bad int, err error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), entryExt) {
			continue
		}
		p := filepath.Join(c.dir, e.Name())
		valid := false
		if key := strings.TrimSuffix(e.Name(), entryExt); len(key) == sha256.Size*2 {
			if data, rerr := os.ReadFile(p); rerr == nil {
				if _, uerr := Unframe(data); uerr == nil {
					valid = true
				}
			}
		}
		if valid {
			ok++
			continue
		}
		bad++
		if remove {
			os.Remove(p)
		}
	}
	return ok, bad, nil
}
