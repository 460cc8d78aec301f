package summary

import (
	"encoding/json"
	"fmt"
)

// ArtifactVersion is the summary artifact schema version. It is baked
// into both the serialized payload and the cache-key fingerprint
// (uchecker appends " summary=v<N>"), so a schema change self-
// invalidates cached artifacts instead of replaying stale ones; the
// in-payload copy additionally rejects artifacts reached through a
// stale fingerprint (e.g. a hand-edited cache directory).
const ArtifactVersion = 2

// EncodeFile serializes one file's local summary layer.
func EncodeFile(fl *FileLocal) ([]byte, error) {
	if fl.Version != ArtifactVersion {
		return nil, fmt.Errorf("summary: encoding artifact with version %d, want %d", fl.Version, ArtifactVersion)
	}
	return json.Marshal(fl)
}

// DecodeFile deserializes a per-file artifact, rejecting payloads from
// a different schema version (the caller treats an error as a cache
// miss and recomputes).
func DecodeFile(b []byte) (*FileLocal, error) {
	var fl FileLocal
	if err := json.Unmarshal(b, &fl); err != nil {
		return nil, fmt.Errorf("summary: corrupt artifact: %w", err)
	}
	if fl.Version != ArtifactVersion {
		return nil, fmt.Errorf("summary: artifact version %d, want %d", fl.Version, ArtifactVersion)
	}
	return &fl, nil
}
