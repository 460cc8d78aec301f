// Safe archive ingestion for the submit endpoint.
//
// The daemon accepts tarballs from untrusted tenants, and a hostile
// archive is the oldest trick in the upload-vulnerability book — it
// would be embarrassing for a scanner that detects unrestricted file
// uploads to be owned by one. Extraction therefore never touches the
// filesystem (sources go straight into the in-memory Target map), and
// every classic attack is rejected or stripped before it can matter:
// path traversal ("../", absolute paths), symlink/hardlink planting,
// device nodes, oversized members and decompression bombs (per-file,
// total and member-count caps enforced while streaming, not after).
package scand

import (
	"archive/tar"
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// IngestLimits caps one HTTP submit's resource consumption: a
// tarball's extracted members, or a JSON body and the sources it
// decodes to. The zero value selects DefaultIngestLimits' caps.
type IngestLimits struct {
	// MaxFileBytes caps one member's extracted size, or one decoded
	// source of a JSON submit.
	MaxFileBytes int64
	// MaxTotalBytes caps the archive's total extracted size — the
	// decompression-bomb guard (a tiny .tar.gz can expand without
	// bound; the cap applies to extracted bytes while streaming). A
	// JSON submit's body is capped at the same size while it is read,
	// so for JSON the cap counts the encoded body, escapes included:
	// json.Marshal writes each '<', '>' and '&' as a 6-byte \u003c
	// escape, so PHP sources that fit as a tarball may not as JSON.
	MaxTotalBytes int64
	// MaxFiles caps the number of regular-file members, or of a JSON
	// submit's sources.
	MaxFiles int
}

// DefaultIngestLimits bounds a submit to something comfortably above
// the largest real plugin (Cimy-scale targets are single-digit MB).
var DefaultIngestLimits = IngestLimits{
	MaxFileBytes:  8 << 20,
	MaxTotalBytes: 64 << 20,
	MaxFiles:      4096,
}

func (l IngestLimits) orDefaults() IngestLimits {
	if l.MaxFileBytes <= 0 {
		l.MaxFileBytes = DefaultIngestLimits.MaxFileBytes
	}
	if l.MaxTotalBytes <= 0 {
		l.MaxTotalBytes = DefaultIngestLimits.MaxTotalBytes
	}
	if l.MaxFiles <= 0 {
		l.MaxFiles = DefaultIngestLimits.MaxFiles
	}
	return l
}

// checkSources applies the file-count and per-file caps to the sources
// of a decoded JSON submit; its body was capped at MaxTotalBytes while
// it was read.
func (l IngestLimits) checkSources(sources map[string]string) error {
	if len(sources) > l.MaxFiles {
		return fmt.Errorf("scand: submit exceeds limits: %d files (cap %d)", len(sources), l.MaxFiles)
	}
	for _, src := range sources {
		if int64(len(src)) > l.MaxFileBytes {
			return fmt.Errorf("scand: submit exceeds limits: a source exceeds per-file cap %d", l.MaxFileBytes)
		}
	}
	return nil
}

// ErrHostileArchive is the base error for every rejection that implies
// the archive is malformed or malicious (as opposed to merely too big).
var ErrHostileArchive = errors.New("scand: hostile archive")

// ErrArchiveTooLarge is the base error for size/count cap rejections.
var ErrArchiveTooLarge = errors.New("scand: archive exceeds limits")

// IngestTar extracts a (possibly gzip-compressed) tar stream into an
// in-memory source map. Directory members are ignored; symlinks and
// hardlinks are stripped (skipped, never followed); any other
// non-regular member, an absolute path, or a path escaping the archive
// root rejects the whole archive — a tenant that ships one hostile
// member does not get the benign rest scanned.
func IngestTar(r io.Reader, lim IngestLimits) (map[string]string, error) {
	lim = lim.orDefaults()
	br := bufio.NewReader(r)
	// Sniff the gzip magic instead of trusting a Content-Type header.
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("%w: bad gzip stream: %v", ErrHostileArchive, err)
		}
		defer gz.Close()
		return ingestTarStream(gz, lim)
	}
	return ingestTarStream(br, lim)
}

func ingestTarStream(r io.Reader, lim IngestLimits) (map[string]string, error) {
	sources := map[string]string{}
	var total int64
	tr := tar.NewReader(r)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: bad tar stream: %v", ErrHostileArchive, err)
		}
		switch hdr.Typeflag {
		case tar.TypeDir:
			continue
		case tar.TypeSymlink, tar.TypeLink:
			// Strip, don't follow: in-memory extraction cannot traverse a
			// link anyway, but keeping the entry would let a hostile
			// archive alias scan sources.
			continue
		case tar.TypeReg:
			// fallthrough to extraction
		case tar.TypeXGlobalHeader, tar.TypeXHeader:
			continue
		default:
			return nil, fmt.Errorf("%w: member %q has non-regular type %q", ErrHostileArchive, hdr.Name, string(hdr.Typeflag))
		}
		name, err := cleanArchivePath(hdr.Name)
		if err != nil {
			return nil, err
		}
		if len(sources) >= lim.MaxFiles {
			return nil, fmt.Errorf("%w: more than %d files", ErrArchiveTooLarge, lim.MaxFiles)
		}
		if hdr.Size > lim.MaxFileBytes {
			return nil, fmt.Errorf("%w: member %q declares %d bytes (cap %d)", ErrArchiveTooLarge, name, hdr.Size, lim.MaxFileBytes)
		}
		// Read one byte past the cap: a member whose header lies about
		// its size still cannot exceed the per-file budget, and the total
		// cap is enforced on actually-extracted bytes.
		limited := io.LimitReader(tr, lim.MaxFileBytes+1)
		data, err := io.ReadAll(limited)
		if err != nil {
			return nil, fmt.Errorf("%w: member %q: %v", ErrHostileArchive, name, err)
		}
		if int64(len(data)) > lim.MaxFileBytes {
			return nil, fmt.Errorf("%w: member %q exceeds per-file cap %d", ErrArchiveTooLarge, name, lim.MaxFileBytes)
		}
		total += int64(len(data))
		if total > lim.MaxTotalBytes {
			return nil, fmt.Errorf("%w: total extracted size exceeds %d bytes", ErrArchiveTooLarge, lim.MaxTotalBytes)
		}
		if _, dup := sources[name]; dup {
			return nil, fmt.Errorf("%w: duplicate member %q", ErrHostileArchive, name)
		}
		sources[name] = string(data)
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("%w: no regular files", ErrHostileArchive)
	}
	return sources, nil
}

// cleanArchivePath normalizes one member path and rejects everything
// that could escape the archive root: absolute paths (unix or
// Windows-style), "..", and Windows separators (a tar written on
// Windows with backslashes would dodge the slash-based checks).
func cleanArchivePath(name string) (string, error) {
	if strings.ContainsAny(name, "\\") {
		return "", fmt.Errorf("%w: member %q contains a backslash", ErrHostileArchive, name)
	}
	if strings.HasPrefix(name, "/") || hasDrivePrefix(name) {
		return "", fmt.Errorf("%w: absolute member path %q", ErrHostileArchive, name)
	}
	clean := path.Clean(name)
	if clean == "." || clean == "" {
		return "", fmt.Errorf("%w: empty member path %q", ErrHostileArchive, name)
	}
	if clean == ".." || strings.HasPrefix(clean, "../") {
		return "", fmt.Errorf("%w: member path %q escapes the archive root", ErrHostileArchive, name)
	}
	if strings.ContainsRune(clean, 0) {
		return "", fmt.Errorf("%w: member path contains NUL", ErrHostileArchive)
	}
	return clean, nil
}

// hasDrivePrefix reports Windows drive-letter absolutes ("C:…").
func hasDrivePrefix(name string) bool {
	return len(name) >= 2 && name[1] == ':' &&
		(('a' <= name[0] && name[0] <= 'z') || ('A' <= name[0] && name[0] <= 'Z'))
}
