package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadKeyRingSchemes: a key file authenticates peers with Ed25519
// or not at all. A file naming any other scheme — "null" would start a
// node that accepts every peer signature — is refused; a file naming
// none is read as ed25519.
func TestLoadKeyRingSchemes(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "keys.json")
	if err := keygen([]string{"-n", "4", "-out", base}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var kf keyFile
	if err := json.Unmarshal(data, &kf); err != nil {
		t.Fatal(err)
	}
	if kf.Scheme != "ed25519" {
		t.Fatalf("keygen wrote scheme %q", kf.Scheme)
	}
	for _, tc := range []struct {
		scheme string
		ok     bool
	}{
		{"ed25519", true},
		{"", true},
		{"null", false},
		{"schnorr-test256", false},
	} {
		kf.Scheme = tc.scheme
		data, err := json.Marshal(kf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "keys-"+tc.scheme+".json")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		ring, err := loadKeyRing(path, 2)
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "signature scheme") {
				t.Errorf("scheme %q: err = %v, want a refusal", tc.scheme, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("scheme %q: %v", tc.scheme, err)
			continue
		}
		if len(ring.Public) != 4 || len(ring.Private) == 0 || len(ring.TransportSecret) == 0 {
			t.Errorf("scheme %q: incomplete ring (%d public keys)", tc.scheme, len(ring.Public))
		}
	}
}
