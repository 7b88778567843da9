package vetd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/defense"
	"repro/internal/dexir"
	"repro/internal/staticanalysis"
)

// VetRequest is the POST /v1/vet body: one app's IR, exactly the
// dexir.App the batch scanners consume.
type VetRequest struct {
	App *dexir.App `json:"app"`
}

// BatchRequest is the POST /v1/vet/batch body.
type BatchRequest struct {
	Apps []*dexir.App `json:"apps"`
}

// Verdict is the wire form of one scan-before-install verdict. The
// verdict-determined fields (Package, Allow, Capabilities, Findings) are
// a pure function of the app's IR — cmd/vetload's -check mode re-derives
// them with defense.Vet and compares canonical bytes (see Core).
type Verdict struct {
	Package      string                   `json:"package"`
	Allow        bool                     `json:"allow"`
	Capabilities []string                 `json:"capabilities,omitempty"`
	Findings     []staticanalysis.Finding `json:"findings,omitempty"`
	// Tier names the static precision tier the verdict was computed at.
	// It is part of Core: a Tier0 and a Tier2 verdict for the same IR are
	// different verdicts, never interchangeable.
	Tier string `json:"tier"`
	// IRHash is the content address the verdict is cached under.
	IRHash string `json:"ir_hash"`
	// Cached reports whether this response was served from the verdict
	// cache (excluded from Core so hit and miss responses stay
	// byte-identical on the verdict itself).
	Cached bool `json:"cached"`
	// Degraded marks a verdict the router computed by local fallback
	// because every replica for the key was unreachable. The verdict
	// itself is still a pure function of the IR — defense.VetTier ran
	// locally instead of on a peer — so Degraded is serving metadata,
	// excluded from Core like Cached.
	Degraded bool `json:"degraded,omitempty"`
	// Peer names the vetd peer that served a routed verdict (set by
	// vetrouter; empty on direct responses and degraded fallbacks).
	// Excluded from Core: which replica answered never changes the
	// verdict.
	Peer string `json:"peer,omitempty"`
}

// NewVerdict converts a defense verdict to its wire form.
func NewVerdict(v defense.VetVerdict, irHash string, cached bool) Verdict {
	var caps []string
	for _, c := range v.Capabilities() {
		caps = append(caps, c.String())
	}
	return Verdict{
		Package:      v.Package,
		Allow:        v.Allow,
		Capabilities: caps,
		Findings:     v.Findings,
		Tier:         v.Tier.String(),
		IRHash:       irHash,
		Cached:       cached,
	}
}

// VerdictKey is the cache/coalescing key for one (IR, tier) pair. The
// tier is part of the key so reconfiguring a server to a different
// precision tier can never serve a verdict computed at the old one.
func VerdictKey(irHash string, tier staticanalysis.Tier) string {
	return irHash + "/" + tier.String()
}

// Core returns the canonical bytes of the verdict-determined fields —
// what -check compares between a served response and a direct
// defense.Vet call. Serving metadata (IRHash, Cached, Degraded, Peer) is
// excluded: a cached, replicated, or locally degraded answer must all
// carry the same core bytes.
func (v Verdict) Core() ([]byte, error) {
	v.IRHash = ""
	v.Cached = false
	v.Degraded = false
	v.Peer = ""
	return json.Marshal(v)
}

// BatchItem is one entry of a batch response, in request order. Exactly
// one of Verdict and Error is set; Status carries the per-item HTTP-style
// status (200, 429, 504, ...).
type BatchItem struct {
	Status  int      `json:"status"`
	Verdict *Verdict `json:"verdict,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/vet/batch reply.
type BatchResponse struct {
	Verdicts []BatchItem `json:"verdicts"`
}

// HashIR computes the content address of an app's IR: SHA-256 over the
// canonical JSON encoding (struct fields in declaration order; the IR
// holds no maps, so the encoding is deterministic). Two requests carrying
// byte-equal IR therefore share a cache slot and coalesce in flight —
// the serving-path reuse of the journal-v2 content-addressed trial keys.
func HashIR(app *dexir.App) (string, error) {
	if app == nil {
		return "", fmt.Errorf("vetd: nil app")
	}
	b, err := json.Marshal(app)
	if err != nil {
		return "", fmt.Errorf("vetd: encode IR: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
