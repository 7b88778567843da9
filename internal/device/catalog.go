package device

import "sync"

// Catalog is the hand-calibrated Table-I/II set: the 30 evaluation
// phones behind one lookup surface. Generated market-weighted populations
// live in internal/fleet, whose entries carry each profile with its
// weight and fault calibration. Profiles are built once and shared;
// Profile is a value type, so handing out copies of the slice elements
// keeps the cache immutable.
type Catalog struct {
	profiles []Profile
	byModel  map[string]int
}

var (
	seedOnce sync.Once
	seedCat  *Catalog
)

// Seed returns the seed catalog: the 30 evaluation devices of Tables I
// and II, byte-identical to the historical package-level Profiles(). The
// catalog is built once and cached; it is safe for concurrent use.
func Seed() *Catalog {
	seedOnce.Do(func() {
		profiles := seedProfiles()
		byModel := make(map[string]int, len(profiles))
		for i, p := range profiles {
			byModel[p.Model] = i
		}
		seedCat = &Catalog{profiles: profiles, byModel: byModel}
	})
	return seedCat
}

// Profiles lists every profile in Table I order. It returns a fresh copy:
// the historical package-level Profiles() rebuilt its slice on every
// call, so callers may have learned to mutate the result, and the shared
// cache must not be corruptible.
func (c *Catalog) Profiles() []Profile {
	out := make([]Profile, len(c.profiles))
	copy(out, c.profiles)
	return out
}

// ByModel finds a profile by model name; ok is false when absent.
func (c *Catalog) ByModel(model string) (Profile, bool) {
	i, ok := c.byModel[model]
	if !ok {
		return Profile{}, false
	}
	return c.profiles[i], true
}

// Default returns the Google Pixel 2 on Android 11, the phone of the
// paper's demo video: the device an experiment runs on when it does not
// care which phone it uses.
func (c *Catalog) Default() Profile {
	if p, ok := c.ByModel("pixel 2"); ok {
		return p
	}
	// The catalog is static, so this is unreachable unless it is edited
	// badly; degrade to the first profile rather than crashing.
	return c.profiles[0]
}

// ByVersionIn returns all profiles in cat running the given major Android
// version, in catalog order.
func ByVersionIn(cat *Catalog, major int) []Profile {
	var out []Profile
	for _, p := range cat.Profiles() {
		if p.Version.Major == major {
			out = append(out, p)
		}
	}
	return out
}
