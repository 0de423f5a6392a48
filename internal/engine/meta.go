package engine

import (
	"crypto/md5"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"scalia/internal/core"
	"scalia/internal/metadata"
)

// ObjectMeta is the metadata Scalia stores per object version — the
// paper's Fig. 11: file metadata (name, mime, checksum, size, policy,
// container) and striping metadata (chunk -> provider map, threshold m,
// storage key).
type ObjectMeta struct {
	Container string `json:"container"`
	Key       string `json:"key"`
	MIME      string `json:"mime"`
	Size      int64  `json:"size"`
	Checksum  string `json:"checksum"` // MD5 of the object payload: the ETag
	RuleName  string `json:"policy"`
	// Rule is the rule the write pinned (PutOptions.Rule), which every
	// re-plan of the version honours; nil = resolve it by container, class.
	Rule  *core.Rule `json:"rule,omitempty"`
	Class string     `json:"class"`

	SKey      string   `json:"skey"`      // MD5(container | key | UUID)
	M         int      `json:"m"`         // erasure threshold
	Chunks    []string `json:"chunks"`    // chunk index -> provider name
	UUID      string   `json:"uuid"`      // version identity
	TTLHours  float64  `json:"ttlHours"`  // user lifetime hint; 0 = none
	CreatedAt int64    `json:"createdAt"` // period of first write

	// Stripes and StripeBytes describe the streaming layout: the object
	// is split into Stripes consecutive stripes of up to StripeBytes
	// payload each, and every stripe is erasure-coded independently, so
	// reads and writes proceed stripe by stripe without materializing
	// the whole object.
	Stripes     int   `json:"stripes,omitempty"`
	StripeBytes int64 `json:"stripeBytes,omitempty"`
	// Sums holds the integrity record of each stripe, in stripe order:
	// what every fetched chunk and every decoded payload is checked
	// against. Every writer sets it; a stripe whose record is missing or
	// does not cover all n chunk slots fails its read with ErrChecksum.
	// Checksum stays an MD5 because it is the wire-visible, S3-compatible
	// ETag; it is computed once, as the body streams in, and no read
	// recomputes it.
	Sums []StripeSum `json:"sums,omitempty"`
	// PartStripes, set on objects assembled from a multipart upload,
	// records how many stripes each part contributed (part 1 first; the
	// values sum to Stripes). Multipart chunk keys are part-scoped — the
	// keys the parts were staged under ARE the committed keys, so
	// completing an upload moves no chunk data. Every part except the
	// last covers a whole number of stripes, so the global stripe
	// geometry (stripeSpan, stripeLen) is identical to a plain object's.
	PartStripes []int `json:"partStripes,omitempty"`
	// Gens is the generation of every chunk column — one per chunk slot,
	// part by part for a multipart version (part p's slot i at p*n + i) —
	// and part of its chunk keys. Whoever writes a column where another
	// writer's chunks may lie draws one from the broker's never-repeating
	// source — an attempt at a multipart part, a swap or heal for each slot
	// it replaces — which makes those writes copy-on-write. A version
	// nobody did that to omits it: every column reads as generation 0.
	Gens []uint64 `json:"gens,omitempty"`
}

// StripeSum is the integrity record of one stripe: the CRC-32C
// (Castagnoli) of each stored chunk, by chunk slot, and of the stripe's
// payload. The stored chunk is the unit of integrity: a chunk whose bytes
// no longer match its sum is an erasure like a missing one — the read
// takes a spare instead (§III-D3) — and the payload sum checks what the
// decode made of the chunks that passed. The sums live here, in the
// metadata row; nothing is appended to the chunks themselves.
type StripeSum struct {
	Payload uint32   `json:"payload"`
	Chunks  []uint32 `json:"chunks"`
}

// Multipart reports whether this version was assembled from a
// multipart upload. Such versions use part-scoped chunk keys and an
// ETag-of-ETags checksum instead of a whole-body MD5.
func (m ObjectMeta) Multipart() bool { return len(m.PartStripes) > 0 }

// StripeCount returns the number of stripes the object is stored as
// (at least 1).
func (m ObjectMeta) StripeCount() int {
	if m.Stripes <= 1 {
		return 1
	}
	return m.Stripes
}

// stripeSpan returns the nominal payload bytes per stripe — the
// divisor that maps a byte offset to its stripe index. Single-stripe
// objects span their whole size regardless of the recorded StripeBytes.
func (m ObjectMeta) stripeSpan() int64 {
	if m.StripeCount() == 1 || m.StripeBytes <= 0 {
		if m.Size > 0 {
			return m.Size
		}
		return 1
	}
	return m.StripeBytes
}

// stripeLen returns the payload length of stripe s.
func (m ObjectMeta) stripeLen(s int) int64 {
	if m.StripeCount() == 1 {
		return m.Size
	}
	start := int64(s) * m.StripeBytes
	if left := m.Size - start; left < m.StripeBytes {
		return left
	}
	return m.StripeBytes
}

// ETag returns the object's entity tag for conditional HTTP requests:
// the quoted content checksum, as S3 does for simple uploads.
func (m ObjectMeta) ETag() string { return `"` + m.Checksum + `"` }

// RowKey returns the metadata row key: MD5(container | key) (§III-D1).
func RowKey(container, key string) string {
	sum := md5.Sum([]byte(container + "|" + key))
	return hex.EncodeToString(sum[:])
}

// StorageKey derives skey = MD5(container | key | UUID) (§III-D1); the
// UUID makes concurrent updates write disjoint chunk keys so they cannot
// corrupt each other.
func StorageKey(container, key, uuid string) string {
	sum := md5.Sum([]byte(container + "|" + key + "|" + uuid))
	return hex.EncodeToString(sum[:])
}

// ChunkKey names generation gen of chunk i of stripe s of a plain
// (non-multipart) object version.
func ChunkKey(skey string, s, i int, gen uint64) string {
	return fmt.Sprintf("%s/s%05d/chunk%03d.%d", skey, s, i, gen)
}

// PartChunkKey names generation gen of chunk i of local stripe s of part
// number part of a multipart upload. Parts stage their chunks under these
// keys, and a completed multipart object keeps them, so completion is a
// metadata-only commit.
func PartChunkKey(skey string, part, s, i int, gen uint64) string {
	return fmt.Sprintf("%s/p%05d/s%05d/chunk%03d.%d", skey, part, s, i, gen)
}

// chunkKey names chunk i of stripe s of this object version. For
// multipart versions the global stripe index is mapped to (part, local
// stripe) through PartStripes. A stripe past the recorded parts, or a
// column Gens does not cover (layoutOf rejects such a row), gets a key
// nothing was stored under.
func (m ObjectMeta) chunkKey(s, i int) string {
	part := 0
	for part < len(m.PartStripes) && s >= m.PartStripes[part] {
		s -= m.PartStripes[part]
		part++
	}
	var gen uint64
	if col := part*len(m.Chunks) + i; col < len(m.Gens) {
		gen = m.Gens[col]
	}
	if m.Multipart() {
		return PartChunkKey(m.SKey, part+1, s, i, gen)
	}
	return ChunkKey(m.SKey, s, i, gen)
}

// columns is how many chunk columns the version has, which is how many
// generations a Gens that is present must hold.
func (m ObjectMeta) columns() int { return max(1, len(m.PartStripes)) * len(m.Chunks) }

// NewUUID returns a random 128-bit identifier (RFC 4122 v4 layout).
func NewUUID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("engine: system randomness unavailable: " + err.Error())
	}
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	return fmt.Sprintf("%x-%x-%x-%x-%x", b[0:4], b[4:6], b[6:8], b[8:10], b[10:16])
}

// metaColumn is the column name holding the JSON-encoded ObjectMeta.
const metaColumn = "meta"

// encodeMeta packs an ObjectMeta into an MVCC version. The version
// carries, beside the JSON column, a private copy of the value it
// encodes: it lives exactly as long as the stored version does and
// spares every later read of the row its json.Unmarshal.
func encodeMeta(m ObjectMeta, timestamp int64) (metadata.Version, error) {
	blob, err := json.Marshal(m)
	if err != nil {
		return metadata.Version{}, fmt.Errorf("engine: encode meta: %w", err)
	}
	own := m.clone()
	return metadata.Version{
		UUID:      m.UUID,
		Timestamp: timestamp,
		Columns:   map[string]string{metaColumn: string(blob)},
		Decoded:   &own,
	}, nil
}

// decodeMeta unpacks an MVCC version into an ObjectMeta the caller owns:
// a copy of the value encodeMeta attached, or, for a version that
// carries none, the parsed column.
func decodeMeta(v metadata.Version) (ObjectMeta, error) {
	if own, ok := v.Decoded.(*ObjectMeta); ok {
		return own.clone(), nil
	}
	var m ObjectMeta
	if err := json.Unmarshal([]byte(v.Columns[metaColumn]), &m); err != nil {
		return ObjectMeta{}, fmt.Errorf("engine: decode meta: %w", err)
	}
	return m, nil
}

// clone returns a copy of m that shares no slice with it.
func (m ObjectMeta) clone() ObjectMeta {
	m.Chunks = slices.Clone(m.Chunks)
	m.PartStripes = slices.Clone(m.PartStripes)
	m.Gens = slices.Clone(m.Gens)
	m.Sums = slices.Clone(m.Sums)
	for i := range m.Sums {
		m.Sums[i].Chunks = slices.Clone(m.Sums[i].Chunks)
	}
	if m.Rule != nil {
		r := *m.Rule
		r.Zones = slices.Clone(r.Zones)
		m.Rule = &r
	}
	return m
}
