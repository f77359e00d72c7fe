package store

// Envelope helpers are the cluster trust boundary: WrapEnvelope /
// VerifyEnvelope must round-trip, and every tampered form must be
// rejected before Install writes a byte.

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	key := testKey("env")
	payload := []byte(`{"platform": "taurus",  "apps": []}`)
	env, err := WrapEnvelope(key, payload)
	if err != nil {
		t.Fatalf("WrapEnvelope: %v", err)
	}
	got, err := VerifyEnvelope(key, env)
	if err != nil {
		t.Fatalf("VerifyEnvelope: %v", err)
	}
	// The payload is compacted inside the envelope; semantics survive.
	var want bytes.Buffer
	if err := json.Compact(&want, payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("payload round trip:\n got %s\nwant %s", got, want.Bytes())
	}
}

func TestEnvelopeRejectsBadInputs(t *testing.T) {
	key := testKey("env2")
	env, err := WrapEnvelope(key, []byte(`{"a":1}`))
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"truncated":    env[:len(env)/2],
		"not json":     []byte("junk"),
		"empty":        nil,
		"tampered":     bytes.Replace(env, []byte(`"a":1`), []byte(`"a":2`), 1),
		"wrong digest": bytes.Replace(env, []byte(`"payload_sha256":"`), []byte(`"payload_sha256":"00`), 1),
	}
	for name, raw := range cases {
		if _, err := VerifyEnvelope(key, raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: VerifyEnvelope = %v, want ErrCorrupt", name, err)
		}
	}
	// An envelope wrapped for another key must not verify under this one.
	other, err := WrapEnvelope(testKey("other"), []byte(`{"a":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyEnvelope(key, other); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("cross-key envelope verified: %v", err)
	}
	if _, err := WrapEnvelope("not-a-key", []byte(`{}`)); err == nil {
		t.Fatal("WrapEnvelope accepted an invalid key")
	}
	if _, err := WrapEnvelope(key, []byte("not json")); err == nil {
		t.Fatal("WrapEnvelope accepted a non-JSON payload")
	}
}
