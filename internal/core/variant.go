package core

// Variant selects which protocol the three engines run. The paper has
// one — eager release, serial invalidation, the single-writer
// optimization — and DefaultVariant is it; every other value is an
// ablation or an extension of this reproduction. Variants enumerates
// the named ones, and the machine table every oracle in internal/exp
// iterates and the ablation sweeps both work from that list rather
// than from the fields.
type Variant struct {
	// SingleWriter enables the paper's single-writer optimization:
	// when a release finds exactly one outstanding write copy, the
	// whole page is shipped home instead of a diff and the writer SSMP
	// keeps its copy.
	SingleWriter bool

	// SerialInv makes the Server invalidate one copy at a time during a
	// release, waiting for each reply before the next INV — the eager
	// behaviour MGS's measured release costs imply. Clearing it sends
	// all INVs at once (an ablation).
	SerialInv bool

	// LazyRelease switches the consistency protocol from the paper's
	// eager release (every release invalidates all copies) to a
	// TreadMarks-style lazy variant (the other side of the paper's §6
	// comparison): a release only pushes the releaser's own diff to the
	// home and advances the page's version; other copies go stale in
	// place. Coherence moves to acquire time — every lock grant and
	// barrier exit validates the acquiring SSMP's copies against the
	// home versions (idealized write notices), flushing dirty stale
	// pages and invalidating clean ones. The eager release round never
	// runs in this mode, so UpdateProtocol, which modifies it, cannot
	// be combined with it (harness.Config.Validate), and SingleWriter
	// has no effect. See lazy.go.
	LazyRelease bool

	// UpdateProtocol switches release rounds from invalidate to update
	// (the Galactica Net comparison from the paper's related work):
	// copies are not torn down; after the merge, the home pushes the
	// merged page back to every copy, which replays its own concurrent
	// writes on top. Releases complete only after every copy has
	// acknowledged its refresh. Mappings survive, so steady
	// producer-consumer sharing stops paying refetch costs, at the
	// price of page pushes to every sharer on every release.
	UpdateProtocol bool
}

// DefaultVariant returns the paper's protocol.
func DefaultVariant() Variant {
	return Variant{SingleWriter: true, SerialInv: true}
}

// NamedVariant is one entry of Variants.
type NamedVariant struct {
	Name string
	Variant
}

// Names of the Variants entries that non-test code selects (exp's
// ablation table).
const (
	VariantNoSingleWriter = "no-singlewriter"
	VariantParallelInv    = "parallel-inv"
	VariantUpdate         = "update"
	VariantLazy           = "lazy"
)

// Variants returns the named protocol variants, the default first. Each
// differs from DefaultVariant in one field.
func Variants() []NamedVariant {
	return []NamedVariant{
		{"default", DefaultVariant()},
		{VariantNoSingleWriter, Variant{SerialInv: true}},
		{VariantParallelInv, Variant{SingleWriter: true}},
		{VariantUpdate, Variant{SingleWriter: true, SerialInv: true, UpdateProtocol: true}},
		{VariantLazy, Variant{SingleWriter: true, SerialInv: true, LazyRelease: true}},
	}
}
