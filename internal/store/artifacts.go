package store

// Artifacts is the content-addressed half of the state directory: one
// file per compiled pipeline, named by the submission's SpecHash. Writes
// are crash-atomic (tmp file + fsync + rename + directory fsync), and
// reads verify the envelope — key, embedded hash, payload digest — so a
// corrupt or truncated artifact is quarantined and reported, never
// served and never fatal.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
)

var (
	// ErrNotFound reports a key with no stored artifact.
	ErrNotFound = errors.New("store: artifact not found")
	// ErrCorrupt reports an artifact that failed verification; the file
	// has been moved to quarantine/.
	ErrCorrupt = errors.New("store: artifact corrupt (quarantined)")
)

// keyRE bounds artifact keys to hex digests: the key is also the file
// name, so nothing path-like may pass.
var keyRE = regexp.MustCompile(`^[0-9a-f]{16,128}$`)

// ValidKey reports whether key is an acceptable artifact key (a bare hex
// digest — the key doubles as a file name, so nothing path-like passes).
func ValidKey(key string) bool { return keyRE.MatchString(key) }

// The artifact envelope, shared by the on-disk store and the cluster
// wire (`GET /v1/cluster/artifacts/{hash}` serves these bytes), is one
// frame: these constants around the key, the payload's SHA-256 in
// lowercase hex — the digest every reader, local Get or a peer fetch,
// re-checks — and the compacted payload, the pipeline document. It is
// the JSON object {"version":1,"spec_hash":…,"payload_sha256":…,
// "payload":…} and a newline.
const (
	frameKey     = `{"version":1,"spec_hash":"`
	frameDigest  = `","payload_sha256":"`
	framePayload = `","payload":`
	frameEnd     = "}\n"
)

// WrapEnvelope frames payload under key in the artifact envelope: the
// payload is compacted, digested, and wrapped exactly as Put writes it
// to disk, so the result can be stored or shipped to a peer.
func WrapEnvelope(key string, payload []byte) ([]byte, error) {
	if !keyRE.MatchString(key) {
		return nil, fmt.Errorf("store: invalid artifact key %q", key)
	}
	var buf bytes.Buffer
	buf.Grow(len(frameKey) + len(key) + len(frameDigest) + digestLen + len(framePayload) + len(payload) + len(frameEnd))
	buf.WriteString(frameKey + key + frameDigest)
	at := buf.Len()
	var digest [digestLen]byte // filled in once the payload is compacted
	buf.Write(digest[:])
	buf.WriteString(framePayload)
	start := buf.Len()
	if err := json.Compact(&buf, payload); err != nil {
		return nil, fmt.Errorf("store: artifact payload is not JSON: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes()[start:])
	hex.Encode(buf.Bytes()[at:at+digestLen], sum[:])
	buf.WriteString(frameEnd)
	return buf.Bytes(), nil
}

// VerifyEnvelope checks raw as the artifact envelope WrapEnvelope writes
// for key and returns its payload: the frame byte for byte (the final
// newline may be missing — the cluster wire carries the envelope as a
// JSON value), then SHA-256 over the payload against the digest it
// carries. Nothing here parses the payload: the payload's one decoder
// checks it is JSON. This is the trust boundary for bytes from disk and
// from a peer — a forged or corrupt envelope never yields a payload.
// Failures are reported as ErrCorrupt (the caller decides whether
// quarantine applies).
func VerifyEnvelope(key string, raw []byte) ([]byte, error) {
	if !keyRE.MatchString(key) {
		return nil, fmt.Errorf("store: invalid artifact key %q", key)
	}
	payload, digest, ok := splitFrame(key, raw)
	if !ok {
		return nil, fmt.Errorf("%w: %s: not an artifact envelope", ErrCorrupt, key)
	}
	sum := sha256.Sum256(payload)
	var want [digestLen]byte
	hex.Encode(want[:], sum[:])
	if !bytes.Equal(digest, want[:]) {
		return nil, fmt.Errorf("%w: %s: payload digest mismatch", ErrCorrupt, key)
	}
	return payload, nil
}

// digestLen is the length of the payload digest in hex.
const digestLen = 2 * sha256.Size

// splitFrame cuts raw into the payload and digest of key's frame. The
// payload span is non-empty and neither starts nor ends with JSON
// whitespace, so it is the payload value's bytes exactly.
func splitFrame(key string, raw []byte) (payload, digest []byte, ok bool) {
	rest, ok := bytes.CutPrefix(raw, []byte(frameKey))
	if ok {
		rest, ok = bytes.CutPrefix(rest, []byte(key))
	}
	if ok {
		rest, ok = bytes.CutPrefix(rest, []byte(frameDigest))
	}
	if !ok || len(rest) < digestLen {
		return nil, nil, false
	}
	digest = rest[:digestLen]
	if rest, ok = bytes.CutPrefix(rest[digestLen:], []byte(framePayload)); !ok {
		return nil, nil, false
	}
	if payload, ok = bytes.CutSuffix(rest, []byte(frameEnd)); !ok {
		payload, ok = bytes.CutSuffix(rest, []byte(frameEnd[:1]))
	}
	ok = ok && len(payload) > 0 && !isSpace(payload[0]) && !isSpace(payload[len(payload)-1])
	return payload, digest, ok
}

// isSpace reports JSON whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

// Artifacts is a content-addressed blob store under dir. Safe for
// concurrent use; writes serialize on an internal mutex (artifact writes
// are rare next to reads).
type Artifacts struct {
	fs         FS
	dir        string
	quarantine string

	mu sync.Mutex
}

func newArtifacts(fs FS, dir, quarantine string) *Artifacts {
	return &Artifacts{fs: fs, dir: dir, quarantine: quarantine}
}

func (a *Artifacts) path(key string) string { return filepath.Join(a.dir, key+".json") }

// Put stores payload under key crash-atomically: the envelope is written
// to a tmp file, fsynced, renamed into place, and the directory synced.
// An existing artifact for key is replaced (content-addressed: the bytes
// are equivalent by construction).
func (a *Artifacts) Put(key string, payload []byte) error {
	raw, err := WrapEnvelope(key, payload)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	tmp := a.path(key) + ".tmp"
	if err := writeFileAtomic(a.fs, tmp, a.path(key), a.dir, raw); err != nil {
		return fmt.Errorf("store: write artifact %s: %w", key, err)
	}
	return nil
}

// Get returns the payload stored under key, re-verifying the envelope
// (frame and digest; the caller's decoder checks the payload is JSON and
// quarantines it if not). A missing artifact is ErrNotFound; one that
// fails verification is moved to quarantine/ and reported as ErrCorrupt
// — callers treat both as a cache miss, never as fatal.
func (a *Artifacts) Get(key string) ([]byte, error) {
	if !keyRE.MatchString(key) {
		return nil, fmt.Errorf("store: invalid artifact key %q", key)
	}
	raw, err := a.fs.ReadFile(a.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: read artifact %s: %w", key, err)
	}
	payload, err := VerifyEnvelope(key, raw)
	if err != nil {
		return nil, a.Quarantine(key, err.Error())
	}
	return payload, nil
}

// Has reports whether an artifact exists for key without verifying it.
func (a *Artifacts) Has(key string) bool {
	if !keyRE.MatchString(key) {
		return false
	}
	_, err := a.fs.ReadFile(a.path(key))
	return err == nil
}

// Quarantine moves a bad artifact out of the serving path and returns
// the ErrCorrupt the caller surfaces: Get's own verification failures,
// and a verified payload its decoder refuses. A failed move falls back
// to removal: a corrupt artifact must never be read again as valid.
func (a *Artifacts) Quarantine(key, reason string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.fs.Rename(a.path(key), filepath.Join(a.quarantine, key+".json")); err != nil {
		_ = a.fs.Remove(a.path(key))
	}
	if strings.Contains(reason, ErrCorrupt.Error()) {
		// The reason came from VerifyEnvelope and already carries the
		// ErrCorrupt prefix; re-wrapping would stutter.
		return fmt.Errorf("%w: %s", ErrCorrupt, strings.TrimPrefix(reason, ErrCorrupt.Error()+": "))
	}
	return fmt.Errorf("%w: %s: %s", ErrCorrupt, key, reason)
}

// writeFileAtomic is the store's one durable write primitive: data lands
// in tmp, is fsynced, renamed over dst, and the directory is synced so
// the rename itself survives power loss. The tmp file is removed on any
// failure.
func writeFileAtomic(fs FS, tmp, dst, dir string, data []byte) error {
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, dst); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(dir)
}
