package corpus

import (
	"encoding/json"
	"fmt"
)

// BatchItem names one program of a batch manifest (the /v1/batch request
// body): exactly one of
//
//   - Workload: a built-in workload name (resolved by the caller — this
//     package does not depend on internal/workloads),
//   - Tier: a frozen ladder tier name ("1k", "5k", ...),
//   - Seed + Config: an arbitrary factory program, regenerated
//     deterministically from the pair alone,
//   - Source (+ Name): inline MiniF source.
//
// A batch manifest is a list of items; ExpandLadder turns the ladder names
// ("quick", "size", "full") into tier items so a whole ladder is one line of
// request JSON.
type BatchItem struct {
	// Name labels the item in the result stream. Defaults: the workload or
	// tier name, "corpus-<seed>" for (seed, config) items, "item-<index>"
	// for inline source.
	Name     string  `json:"name,omitempty"`
	Workload string  `json:"workload,omitempty"`
	Tier     string  `json:"tier,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Config   *Config `json:"config,omitempty"`
	Source   string  `json:"source,omitempty"`
}

// Kind classifies the item; Validate rejects ambiguous or empty items.
func (it BatchItem) Kind() string {
	switch {
	case it.Workload != "":
		return "workload"
	case it.Tier != "":
		return "tier"
	case it.Config != nil:
		return "corpus"
	case it.Source != "":
		return "source"
	}
	return ""
}

// Validate checks the item names exactly one program.
func (it BatchItem) Validate() error {
	n := 0
	for _, set := range []bool{it.Workload != "", it.Tier != "", it.Config != nil, it.Source != ""} {
		if set {
			n++
		}
	}
	switch n {
	case 0:
		return fmt.Errorf(`batch item needs one of "workload", "tier", "seed"+"config", or "source"`)
	case 1:
		return nil
	}
	return fmt.Errorf("ambiguous batch item: %q sets %d program kinds, want exactly one", it.Name, n)
}

// Resolve generates the item's program for the tier and (seed, config)
// kinds. Workload and inline-source items are the caller's to resolve (the
// server layer owns the workload registry).
func (it BatchItem) Resolve() (name, source string, err error) {
	switch it.Kind() {
	case "tier":
		t, ok := TierByName(it.Tier)
		if !ok {
			return "", "", fmt.Errorf("unknown corpus tier %q", it.Tier)
		}
		p := t.Generate()
		if it.Name != "" {
			return it.Name, p.Source, nil
		}
		return p.Name, p.Source, nil
	case "corpus":
		p := Generate(it.Seed, *it.Config)
		if it.Name != "" {
			return it.Name, p.Source, nil
		}
		return p.Name, p.Source, nil
	}
	return "", "", fmt.Errorf("batch item %q: kind %q is not corpus-resolvable", it.Name, it.Kind())
}

// ExpandLadder maps a ladder name to its tier items: "quick" (the -short
// pair), "size" (the four standard tiers), or "full" (adds the 100k tier).
func ExpandLadder(name string) ([]BatchItem, error) {
	var tiers []Tier
	switch name {
	case "quick":
		tiers = QuickLadder()
	case "size":
		tiers = SizeLadder()
	case "full":
		tiers = FullLadder()
	default:
		return nil, fmt.Errorf("unknown ladder %q (want quick, size or full)", name)
	}
	items := make([]BatchItem, len(tiers))
	for i, t := range tiers {
		items[i] = BatchItem{Tier: t.Name}
	}
	return items, nil
}

// NormalizeBatch expands an optional ladder name, prepends its tiers to the
// explicit items, and validates every item. It is the shared decoding path
// of the worker's and the coordinator's /v1/batch.
func NormalizeBatch(ladder string, items []BatchItem) ([]BatchItem, error) {
	if ladder != "" {
		expanded, err := ExpandLadder(ladder)
		if err != nil {
			return nil, err
		}
		items = append(expanded, items...)
	}
	if len(items) == 0 {
		return nil, fmt.Errorf(`batch manifest needs a non-empty "items" list or a "ladder"`)
	}
	for i, it := range items {
		if err := it.Validate(); err != nil {
			return nil, fmt.Errorf("item %d: %w", i, err)
		}
	}
	return items, nil
}

// DecodeBatchManifest parses a JSON batch manifest — either a bare item
// list or an object with "items" and/or "ladder" — into a validated item
// list.
func DecodeBatchManifest(data []byte) ([]BatchItem, error) {
	var wrapper struct {
		Ladder string      `json:"ladder"`
		Items  []BatchItem `json:"items"`
	}
	if err := json.Unmarshal(data, &wrapper); err != nil {
		var bare []BatchItem
		if err2 := json.Unmarshal(data, &bare); err2 != nil {
			return nil, fmt.Errorf("malformed batch manifest: %v", err)
		}
		wrapper.Items = bare
	}
	return NormalizeBatch(wrapper.Ladder, wrapper.Items)
}
