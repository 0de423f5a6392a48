// Package apitest is the conformance suite of the v1 contract
// (scalia.API): one table of behaviours, run through a factory against
// every implementation — the embedded facade, the typed client over an
// in-process gateway, and the typed client over a real scalia-server. A
// behaviour is asserted here once; the transports differ only in the
// factory. What only HTTP can show (status codes, headers, framing) stays
// in internal/engine's wire-level tests.
package apitest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"scalia"
	"scalia/client"
	"scalia/internal/engine"
)

// Open returns an implementation of the contract over a deployment built
// from opts, and that deployment's broker when it runs in this process —
// the way to a fault no route injects (bit rot). A factory bound to a
// deployment it did not build (a real server) calls t.Skip for non-zero
// opts and returns a nil broker.
type Open func(t *testing.T, opts scalia.Options) (scalia.API, *engine.Broker)

var ctx = context.Background()

// tc is one case's view of the deployment: the contract, the shared
// conveniences over it, and a container name no other case uses (a real
// server is shared by all cases and by earlier runs).
type tc struct {
	*testing.T
	scalia.API
	scalia.Helpers
	container string
	broker    *engine.Broker // nil against a real server
}

var cases = []struct {
	name string
	run  func(t *testing.T, open Open)
}{
	{"RoundTrip", with(scalia.Options{}, roundTrip)},
	{"WriteOptionsValidated", with(scalia.Options{}, writeOptionsValidated)},
	{"StreamsMultiStripe", with(scalia.Options{StripeBytes: 2048}, streamsMultiStripe)},
	{"StreamsMultiStripeSequential", with(scalia.Options{
		StripeBytes: 2048, ReadParallelism: -1, PrefetchStripes: -1, WritePipelineDepth: -1,
	}, streamsMultiStripe)},
	{"GetRange", with(scalia.Options{StripeBytes: 2048, CacheBytes: 1 << 20}, getRange)},
	{"OverwriteDuringRead", with(scalia.Options{StripeBytes: 2048}, overwriteDuringRead)},
	{"ContainerNamesValidated", with(scalia.Options{}, containerNamesValidated)},
	{"ConditionalWrites", with(scalia.Options{}, conditionalWrites)},
	{"PagedList", with(scalia.Options{}, pagedList)},
	{"Multipart", with(scalia.Options{}, multipart)},
	{"ProviderLifecycle", with(scalia.Options{}, providerLifecycle)},
	{"ProviderMutations", with(scalia.Options{}, providerMutations)},
	{"ContainerRule", with(scalia.Options{}, containerRule)},
	{"OutageAndRepair", with(scalia.Options{}, outageAndRepair)},
	{"BitRot", with(scalia.Options{}, bitRot)},
	{"OptimizeMigratesHotObject", func(t *testing.T, open Open) {
		clock := engine.NewSimClock()
		with(scalia.Options{Clock: clock}, func(t *tc) { optimizeMigratesHotObject(t, clock) })(t, open)
	}},
	{"AsyncJobs", with(scalia.Options{}, asyncJobs)},
	{"Stats", with(scalia.Options{}, stats)},
}

// with opens a deployment built from opts and runs a case against it.
func with(opts scalia.Options, run func(*tc)) func(*testing.T, Open) {
	return func(t *testing.T, open Open) {
		api, broker := open(t, opts)
		run(&tc{T: t, API: api, Helpers: scalia.Helpers{API: api}, broker: broker,
			container: fmt.Sprintf("%s-%d", t.Name()[strings.LastIndexByte(t.Name(), '/')+1:], time.Now().UnixNano())})
	}
}

// Run runs every case of the suite against the implementation open
// returns, one fresh deployment per case where the factory builds them.
func Run(t *testing.T, open Open) {
	t.Run("Signatures", signatures)
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) { c.run(t, open) })
	}
}

// signatures: the compile-time assertions pin the contract; this pins
// everything else the two implementations share by name (the embedded
// conveniences), so a method added to both with different shapes fails.
func signatures(t *testing.T) {
	embedded, remote := reflect.ValueOf(&scalia.Client{}), reflect.ValueOf(&client.Client{})
	shared := 0
	for i := 0; i < embedded.NumMethod(); i++ {
		name := embedded.Type().Method(i).Name
		if r := remote.MethodByName(name); r.IsValid() {
			shared++
			if embedded.Method(i).Type() != r.Type() { // bound: no receiver
				t.Errorf("%s: %v vs %v", name, embedded.Method(i).Type(), r.Type())
			}
		}
	}
	if want := reflect.TypeOf((*scalia.API)(nil)).Elem().NumMethod(); shared < want {
		t.Errorf("implementations share %d methods, the contract has %d", shared, want)
	}
}

// --- helpers ---

func (t *tc) must(err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// wantErr asserts the sentinel a failure maps to.
func (t *tc) wantErr(err, sentinel error, what string) {
	t.Helper()
	if !errors.Is(err, sentinel) {
		t.Fatalf("%s = %v, want %v", what, err, sentinel)
	}
}

func (t *tc) put(key string, data []byte, opts ...scalia.PutOption) scalia.ObjectMeta {
	t.Helper()
	meta, err := t.Put(ctx, t.container, key, data, opts...)
	t.must(err)
	return meta
}

// wantBody asserts an object reads back as want.
func (t *tc) wantBody(key string, want []byte) scalia.ObjectMeta {
	t.Helper()
	got, meta, err := t.Get(ctx, t.container, key)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get %s: %v (%d bytes, want %d)", key, err, len(got), len(want))
	}
	return meta
}

func (t *tc) stats() scalia.Stats {
	t.Helper()
	st, err := t.Stats(ctx)
	t.must(err)
	return st
}

// provider returns one row of the provider listing.
func (t *tc) provider(name string) scalia.ProviderStatus {
	t.Helper()
	provs, err := t.Providers(ctx)
	t.must(err)
	for _, p := range provs {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("provider %s is not in the market", name)
	return scalia.ProviderStatus{}
}

func random(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func readAll(t *tc, rc io.ReadCloser, err error) []byte {
	t.Helper()
	t.must(err)
	defer rc.Close()
	got, err := io.ReadAll(rc)
	t.must(err)
	return got
}

// --- cases ---

func roundTrip(t *tc) {
	payload := bytes.Repeat([]byte("multi-cloud"), 500)
	meta := t.put("readme.md", payload, scalia.WithMIME("text/markdown"), scalia.WithTTL(24))
	if meta.Size != int64(len(payload)) || meta.M < 1 || len(meta.Chunks) < 2 || meta.TTLHours != 24 {
		t.Fatalf("put meta = %+v", meta)
	}
	got := t.wantBody("readme.md", payload)
	if got.MIME != "text/markdown" || got.Checksum != meta.Checksum {
		t.Fatalf("get meta = %+v", got)
	}
	head, err := t.Head(ctx, t.container, "readme.md")
	if err != nil || head.Size != meta.Size || head.Checksum != meta.Checksum || head.M != meta.M {
		t.Fatalf("Head = %+v, %v", head, err)
	}

	// Zero-byte objects round-trip.
	if _, err := t.PutReader(ctx, t.container, "empty", bytes.NewReader(nil), 0); err != nil {
		t.Fatalf("zero-byte put: %v", err)
	}
	t.wantBody("empty", nil)

	t.must(t.Delete(ctx, t.container, "readme.md"))
	_, _, err = t.Get(ctx, t.container, "readme.md")
	t.wantErr(err, scalia.ErrObjectNotFound, "Get after delete")
	_, err = t.Head(ctx, t.container, "readme.md")
	t.wantErr(err, scalia.ErrObjectNotFound, "Head after delete")
	t.wantErr(t.Delete(ctx, t.container, "readme.md"), scalia.ErrObjectNotFound, "double delete")
}

// writeOptionsValidated: a malformed lifetime hint is refused before any
// chunk is written or billed, on single writes and upload sessions alike.
func writeOptionsValidated(t *tc) {
	before := t.stats().Usage.Ops
	for _, ttl := range []float64{math.Inf(1), math.NaN(), -1} {
		_, err := t.Put(ctx, t.container, "k", []byte("hello"), scalia.WithTTL(ttl))
		t.wantErr(err, scalia.ErrInvalidArgument, fmt.Sprintf("put with TTL %v", ttl))
		_, err = t.CreateUpload(ctx, t.container, "k", 0, scalia.WithTTL(ttl))
		t.wantErr(err, scalia.ErrInvalidArgument, fmt.Sprintf("upload with TTL %v", ttl))
	}
	// A container holding '|' or '/' could share a row with another's.
	for _, container := range []string{t.container + "|k", t.container + "/k"} {
		_, err := t.Put(ctx, container, "k", []byte("hello"))
		t.wantErr(err, scalia.ErrInvalidArgument, fmt.Sprintf("put into container %q", container))
		_, err = t.CreateUpload(ctx, container, "k", 0)
		t.wantErr(err, scalia.ErrInvalidArgument, fmt.Sprintf("upload into container %q", container))
	}
	if ops := t.stats().Usage.Ops - before; ops != 0 {
		t.Fatalf("refused writes cost %v provider ops, want 0", ops)
	}
	_, err := t.Head(ctx, t.container, "k")
	t.wantErr(err, scalia.ErrObjectNotFound, "Head after refused writes")
	t.put("a|b/c", []byte("hello"))
	t.wantBody("a|b/c", []byte("hello"))
}

// containerNamesValidated: a read, delete or listing that names an
// invalid container is refused like a write, and does not reach the
// object whose row, MD5(container | key), it would share: container|b's
// "x" is the container's "b|x".
func containerNamesValidated(t *tc) {
	t.put("b|x", []byte("hello"))
	for _, c := range []string{t.container + "|b", t.container + "/b"} {
		_, headErr := t.Head(ctx, c, "x")
		_, _, getErr := t.Get(ctx, c, "x")
		_, _, rangeErr := t.GetRange(ctx, c, "x", 0, 1)
		_, listErr := t.List(ctx, c, scalia.ListOptions{})
		for op, err := range map[string]error{"Head": headErr, "Get": getErr, "GetRange": rangeErr, "List": listErr, "Delete": t.Delete(ctx, c, "x")} {
			t.wantErr(err, scalia.ErrInvalidArgument, fmt.Sprintf("%s in container %q", op, c))
		}
	}
	t.wantBody("b|x", []byte("hello"))
	if all, err := t.ListAll(ctx, t.container, ""); err != nil || fmt.Sprint(all) != "[b|x]" {
		t.Fatalf("ListAll = %v, %v", all, err)
	}
}

func streamsMultiStripe(t *tc) {
	payload := random(7, 32*1024+5)
	meta, err := t.PutReader(ctx, t.container, "blob", bytes.NewReader(payload), int64(len(payload)))
	t.must(err)
	if meta.Stripes != 17 {
		t.Fatalf("Stripes = %d, want 17", meta.Stripes)
	}
	rc, rmeta, err := t.GetReader(ctx, t.container, "blob")
	if got := readAll(t, rc, err); !bytes.Equal(got, payload) {
		t.Fatalf("streamed read: %d bytes", len(got))
	}
	if rmeta.Size != meta.Size || rmeta.Stripes != meta.Stripes {
		t.Fatalf("stream meta = %+v", rmeta)
	}
}

// overwriteDuringRead: a stream half read when its object is overwritten
// and then deleted still delivers, to its last byte, the version it was
// opened on — a settle in between included — and once it is closed
// nothing of that version is left behind.
func overwriteDuringRead(t *tc) {
	old, fresh := random(21, 32*1024+5), random(22, 3000)
	t.put("k", old)
	rc, meta, err := t.GetReader(ctx, t.container, "k")
	t.must(err)
	defer rc.Close()
	got := make([]byte, len(old))
	_, err = io.ReadFull(rc, got[:2048])
	t.must(err)

	if over := t.put("k", fresh); over.Checksum == meta.Checksum {
		t.Fatal("the overwrite kept the old ETag")
	}
	t.wantBody("k", fresh)
	t.must(t.Delete(ctx, t.container, "k"))
	if t.broker != nil {
		t.broker.ProcessPendingDeletes(ctx)
	}
	_, err = io.ReadFull(rc, got[2048:])
	t.must(err)
	if !bytes.Equal(got, old) {
		t.Fatal("the held stream did not deliver the version it was opened on")
	}
	t.must(rc.Close())
	if t.broker != nil {
		t.broker.ProcessPendingDeletes(ctx)
		if st := t.stats(); st.Retired != (scalia.RetiredStats{}) || st.PendingDeletes != 0 {
			t.Fatalf("at rest: retired %+v, %d postponed deletes", st.Retired, st.PendingDeletes)
		}
	}
}

func getRange(t *tc) {
	payload := random(11, 16*1024+9)
	size := int64(len(payload))
	t.put("blob", payload)
	for _, r := range []struct{ offset, length, end int64 }{
		{3000, 5000, 8000},       // crosses stripe boundaries
		{size - 100, -1, size},   // open-ended tail
		{size - 100, 5000, size}, // clamped to the object end
		{0, size, size},          // the whole object
	} {
		rc, meta, err := t.GetRange(ctx, t.container, "blob", r.offset, r.length)
		if got := readAll(t, rc, err); !bytes.Equal(got, payload[r.offset:r.end]) {
			t.Fatalf("range %d+%d: %d bytes", r.offset, r.length, len(got))
		}
		if meta.Size != size {
			t.Fatalf("range meta = %+v", meta)
		}
	}
	_, _, err := t.GetRange(ctx, t.container, "blob", size, 10)
	t.wantErr(err, scalia.ErrRangeNotSatisfiable, "range past the end")
	for _, r := range [][2]int64{{100, 0}, {100, -2}, {-5, 10}} {
		_, _, err := t.GetRange(ctx, t.container, "blob", r[0], r[1])
		t.wantErr(err, scalia.ErrInvalidArgument, fmt.Sprintf("range %d+%d", r[0], r[1]))
	}
	_, _, err = t.GetRange(ctx, t.container, "ghost", 0, 10)
	t.wantErr(err, scalia.ErrObjectNotFound, "range of a missing object")
}

func conditionalWrites(t *tc) {
	v1 := t.put("k", []byte("v1"), scalia.WithIfAbsent())
	etag := v1.ETag()

	_, err := t.Put(ctx, t.container, "k", []byte("v2"), scalia.WithIfMatch(`"bogus"`))
	t.wantErr(err, scalia.ErrPreconditionFailed, "stale If-Match")
	_, err = t.Put(ctx, t.container, "ghost", []byte("v"), scalia.WithIfMatch("*"))
	t.wantErr(err, scalia.ErrPreconditionFailed, "If-Match on a missing object")
	v2 := t.put("k", []byte("v1"), scalia.WithIfMatch(etag)) // the same bytes: still a new write
	if v2.ETag() == etag {
		t.Fatal("an identical update kept the ETag")
	}
	_, err = t.Put(ctx, t.container, "k", []byte("v3"), scalia.WithIfAbsent())
	t.wantErr(err, scalia.ErrPreconditionFailed, "create-only over an existing object")
	_, err = t.Put(ctx, t.container, "k", []byte("v3"), scalia.WithIfMatch("W/"+v2.ETag()))
	t.wantErr(err, scalia.ErrPreconditionFailed, "If-Match with the current ETag weakened")
	t.wantBody("k", []byte("v1"))
	v3 := t.put("k", []byte("v3"), scalia.WithIfMatch(`"bogus", `+v2.ETag()))

	t.wantErr(t.DeleteIf(ctx, t.container, "k", etag), scalia.ErrPreconditionFailed, "delete with the stale ETag")
	t.wantErr(t.DeleteIf(ctx, t.container, "k", etag+", W/"+v3.ETag()), scalia.ErrPreconditionFailed, "delete with a stale and a weak ETag")
	t.wantBody("k", []byte("v3"))
	t.must(t.DeleteIf(ctx, t.container, "k", etag+", "+v3.ETag()))
	t.wantErr(t.DeleteIf(ctx, t.container, "k", "*"), scalia.ErrObjectNotFound, "delete of a deleted object")
}

func pagedList(t *tc) {
	for _, k := range []string{"x3", "y1", "x1", "x2"} {
		t.put(k, []byte("v"))
	}
	page, err := t.List(ctx, t.container, scalia.ListOptions{Prefix: "x", Limit: 2})
	t.must(err)
	if fmt.Sprint(page.Keys) != "[x1 x2]" || !page.Truncated || page.Next != "x2" || page.Container != t.container {
		t.Fatalf("page 1 = %+v", page)
	}
	page, err = t.List(ctx, t.container, scalia.ListOptions{Prefix: "x", Limit: 2, After: page.Next})
	t.must(err)
	if fmt.Sprint(page.Keys) != "[x3]" || page.Truncated || page.Next != "" {
		t.Fatalf("page 2 = %+v", page)
	}
	all, err := t.ListAll(ctx, t.container, "")
	if err != nil || fmt.Sprint(all) != "[x1 x2 x3 y1]" {
		t.Fatalf("ListAll = %v, %v", all, err)
	}
	empty, err := t.List(ctx, t.container+"-empty", scalia.ListOptions{})
	if err != nil || empty.Keys == nil || len(empty.Keys) != 0 {
		t.Fatalf("empty container = %+v, %v", empty, err)
	}
}

func multipart(t *tc) {
	stripe := int(t.stats().StripeBytes)
	part1 := random(42, 2*stripe) // non-final parts are whole stripes
	part2 := random(43, 1500)     // ragged final part
	whole := append(append([]byte(nil), part1...), part2...)

	up, err := t.CreateUpload(ctx, t.container, "resumable", int64(len(whole)), scalia.WithMIME("video/mp4"))
	t.must(err)
	if up.UploadID == "" || up.Container != t.container || up.Key != "resumable" {
		t.Fatalf("upload info = %+v", up)
	}
	p1, err := t.UploadPart(ctx, up, 1, bytes.NewReader(part1), int64(len(part1)))
	t.must(err)
	if p1.Stripes != 2 || p1.ETag == "" || p1.Size != int64(len(part1)) {
		t.Fatalf("part 1 = %+v", p1)
	}

	// Resume: the connection "dropped" before part 2 — ListParts says what
	// survived, a garbled attempt at part 2 is replaced by re-sending it.
	parts, err := t.ListParts(ctx, up)
	if err != nil || len(parts) != 1 || parts[0] != p1 {
		t.Fatalf("ListParts = %+v, %v", parts, err)
	}
	if _, err := t.UploadPart(ctx, up, 2, bytes.NewReader(part1[:700]), 700); err != nil {
		t.Fatal(err)
	}
	p2, err := t.UploadPart(ctx, up, 2, bytes.NewReader(part2), int64(len(part2)))
	t.must(err)
	if parts, err = t.ListParts(ctx, up); err != nil || len(parts) != 2 || parts[1] != p2 {
		t.Fatalf("ListParts after resume = %+v, %v", parts, err)
	}

	// Mismatch: a wrong ETag or a gap fails and leaves the upload open.
	_, err = t.CompleteUpload(ctx, up, []scalia.CompletedPart{{PartNumber: 1, ETag: p1.ETag}, {PartNumber: 2, ETag: "bogus"}})
	t.wantErr(err, scalia.ErrInvalidArgument, "complete with a wrong ETag")
	_, err = t.CompleteUpload(ctx, up, []scalia.CompletedPart{{PartNumber: 2, ETag: p2.ETag}})
	t.wantErr(err, scalia.ErrInvalidArgument, "complete with a gap")
	_, err = t.UploadPart(ctx, up, 0, bytes.NewReader(part2), int64(len(part2)))
	t.wantErr(err, scalia.ErrInvalidArgument, "part number 0")

	meta, err := t.CompleteUpload(ctx, up, []scalia.CompletedPart{{PartNumber: 1, ETag: p1.ETag}, {PartNumber: 2, ETag: p2.ETag}})
	t.must(err)
	if meta.Size != int64(len(whole)) || !meta.Multipart() || meta.MIME != "video/mp4" {
		t.Fatalf("completed meta = %+v", meta)
	}
	t.wantBody("resumable", whole)
	rc, _, err := t.GetRange(ctx, t.container, "resumable", int64(len(part1))-100, 300) // across the part seam
	if got := readAll(t, rc, err); !bytes.Equal(got, whole[len(part1)-100:len(part1)+200]) {
		t.Fatalf("range across the part seam: %d bytes", len(got))
	}
	_, err = t.ListParts(ctx, up)
	t.wantErr(err, scalia.ErrUploadNotFound, "ListParts after complete")

	// Abort: staged chunks vanish and the session stops answering.
	doomed, err := t.CreateUpload(ctx, t.container, "doomed", 0)
	t.must(err)
	if _, err := t.UploadPart(ctx, doomed, 1, bytes.NewReader(part2), int64(len(part2))); err != nil {
		t.Fatal(err)
	}
	t.must(t.AbortUpload(ctx, doomed))
	t.wantErr(t.AbortUpload(ctx, doomed), scalia.ErrUploadNotFound, "double abort")
	_, err = t.UploadPart(ctx, doomed, 2, bytes.NewReader(part2), int64(len(part2)))
	t.wantErr(err, scalia.ErrUploadNotFound, "part of an aborted upload")
	_, _, err = t.Get(ctx, t.container, "doomed")
	t.wantErr(err, scalia.ErrObjectNotFound, "aborted object")
	t.must(t.Delete(ctx, t.container, "resumable"))
}

func providerLifecycle(t *tc) {
	before, err := t.Providers(ctx)
	t.must(err)
	if len(before) < 5 {
		t.Fatalf("Providers = %d, want the Fig. 3 five", len(before))
	}
	for _, p := range before {
		if !p.Available || p.Name == "" {
			t.Fatalf("provider %+v", p)
		}
	}
	budget := scalia.Provider{
		Name: "budget-" + t.container, Durability: 0.999999, Availability: 0.999,
		Zones:   []scalia.Zone{scalia.ZoneUS},
		Pricing: scalia.Pricing{StorageGBMonth: 0.001, BandwidthInGB: 0.001, BandwidthOutGB: 0.001},
	}
	t.must(t.AddProvider(ctx, budget))
	t.Cleanup(func() { t.RemoveProvider(ctx, budget.Name) }) //nolint:errcheck
	if after, _ := t.Providers(ctx); len(after) != len(before)+1 {
		t.Fatalf("Providers after add = %d", len(after))
	}
	payload := random(3, 1000)
	if meta := t.put("k", payload); !slices.Contains(meta.Chunks, budget.Name) {
		t.Fatalf("dirt-cheap provider ignored: %v", meta.Chunks)
	}

	// Registering the name again must not replace the live backend: the
	// chunks stored at it would be orphaned.
	err = t.AddProvider(ctx, budget)
	t.wantErr(err, scalia.ErrPreconditionFailed, "add twice")
	t.wantErr(err, scalia.ErrProviderExists, "add twice")
	t.wantBody("k", payload)
	if t.provider(budget.Name).UsedBytes == 0 {
		t.Fatal("the second AddProvider swapped in an empty backend")
	}
	t.wantErr(t.AddProvider(ctx, scalia.Provider{}), scalia.ErrInvalidArgument, "add without a name")

	t.must(t.Delete(ctx, t.container, "k"))
	t.must(t.RemoveProvider(ctx, budget.Name))
	t.wantErr(t.RemoveProvider(ctx, budget.Name), scalia.ErrObjectNotFound, "double remove")
}

func providerMutations(t *tc) {
	provs, err := t.Providers(ctx)
	t.must(err)
	victim := provs[0]

	down, err := t.SetProviderAvailable(ctx, victim.Name, false)
	t.must(err)
	t.Cleanup(func() { t.SetProviderAvailable(ctx, victim.Name, true) }) //nolint:errcheck
	if down.Provider != victim.Name || down.Field != "availability" || down.Available == nil || *down.Available || down.Epoch == 0 {
		t.Fatalf("availability mutation = %+v", down)
	}
	if t.provider(victim.Name).Available {
		t.Fatal("the injected outage does not show in the provider listing")
	}
	if meta := t.put("during-outage", random(5, 4096)); slices.Contains(meta.Chunks, victim.Name) {
		t.Fatalf("write placed a chunk on the down provider: %v", meta.Chunks)
	}
	up, err := t.SetProviderAvailable(ctx, victim.Name, true)
	if err != nil || up.Epoch <= down.Epoch || up.Available == nil || !*up.Available {
		t.Fatalf("recovery mutation = %+v, %v (after epoch %d)", up, err, down.Epoch)
	}

	raised := victim.Pricing
	raised.StorageGBMonth *= 2
	mut, err := t.SetProviderPricing(ctx, victim.Name, raised)
	t.must(err)
	t.Cleanup(func() { t.SetProviderPricing(ctx, victim.Name, victim.Pricing) }) //nolint:errcheck
	if mut.Field != "pricing" || mut.Pricing == nil || *mut.Pricing != raised || mut.Epoch <= up.Epoch {
		t.Fatalf("pricing mutation = %+v", mut)
	}
	if got := t.provider(victim.Name).Pricing; got != raised {
		t.Fatalf("price sheet after the event = %+v", got)
	}

	_, err = t.SetProviderAvailable(ctx, "no-such-provider", false)
	t.wantErr(err, scalia.ErrUnknownProvider, "outage on an unknown provider")
	_, err = t.SetProviderPricing(ctx, "no-such-provider", raised)
	t.wantErr(err, scalia.ErrUnknownProvider, "pricing of an unknown provider")
}

func containerRule(t *tc) {
	t.must(t.SetContainerRule(ctx, t.container, scalia.Rule{
		Name: "eu", Durability: 0.9999, Availability: 0.9999,
		Zones: []scalia.Zone{scalia.ZoneEU}, LockIn: 1,
	}))
	for _, p := range t.put("doc", []byte("bytes")).Chunks {
		if p != "S3(h)" && p != "S3(l)" {
			t.Fatalf("non-EU provider %s for an EU container", p)
		}
	}
	err := t.SetContainerRule(ctx, t.container, scalia.Rule{LockIn: 7})
	t.wantErr(err, scalia.ErrInvalidArgument, "invalid rule")
	t.wantErr(err, scalia.ErrInvalidRule, "invalid rule")

	// Well-formed but infeasible: only two providers serve APAC, lock-in
	// 0.25 needs four.
	apac := t.container + "-apac"
	t.must(t.SetContainerRule(ctx, apac, scalia.Rule{
		Name: "apac", Durability: 0.9999, Availability: 0.99,
		Zones: []scalia.Zone{scalia.ZoneAPAC}, LockIn: 0.25,
	}))
	_, err = t.Put(ctx, apac, "k", []byte("x"))
	t.wantErr(err, scalia.ErrInfeasiblePlacement, "put under an infeasible rule")
}

func outageAndRepair(t *tc) {
	payload := random(9, 10000)
	meta := t.put("k", payload)
	t.put("cold", payload) // never read, so never in a stripe cache
	victim := meta.Chunks[0]
	_, err := t.SetProviderAvailable(ctx, victim, false)
	t.must(err)
	t.Cleanup(func() {
		for _, p := range meta.Chunks {
			t.SetProviderAvailable(ctx, p, true) //nolint:errcheck
		}
	})
	t.wantBody("k", payload) // reads survive on erasure redundancy

	rep, err := t.Repair(ctx, scalia.RepairWait)
	if err != nil || rep.Affected < 1 || rep.Waited != rep.Affected || rep.Repaired != 0 {
		t.Fatalf("wait-policy repair = %+v, %v", rep, err)
	}
	rep, err = t.Repair(ctx, scalia.RepairActive)
	if err != nil || rep.Repaired < 1 || rep.Swapped+rep.Restriped != rep.Repaired || rep.ChunksWritten == 0 {
		t.Fatalf("active repair = %+v, %v", rep, err)
	}
	if after := t.wantBody("k", payload); slices.Contains(after.Chunks, victim) {
		t.Fatalf("repaired object still on the failed provider: %v", after.Chunks)
	}

	// Beyond the erasure threshold nothing can serve an object.
	cold, err := t.Head(ctx, t.container, "cold")
	t.must(err)
	meta.Chunks = append(meta.Chunks, cold.Chunks...) // for the cleanup
	for _, p := range cold.Chunks[:len(cold.Chunks)-cold.M+1] {
		_, err := t.SetProviderAvailable(ctx, p, false)
		t.must(err)
	}
	_, _, err = t.Get(ctx, t.container, "cold")
	t.wantErr(err, scalia.ErrNotEnoughChunks, "read beyond the erasure threshold")
}

// bitRot: a chunk whose stored bytes rotted is an erasure — the read takes
// a spare and says so in the counters — and an object rotten beyond its
// spares fails with ErrChecksum, as itself on every transport.
func bitRot(t *tc) {
	if t.broker == nil {
		t.Skip("no route injects bit rot; needs the deployment in this process")
	}
	payload := random(11, 10000)
	meta := t.put("k", payload)
	rot := func(slot int) {
		store, _ := t.broker.Registry().Store(meta.Chunks[slot])
		key := engine.ChunkKey(meta.SKey, 0, slot, 0) // a fresh put: generation 0
		stored, err := store.Get(ctx, key)
		t.must(err)
		data := bytes.Clone(stored) // Get's result is read-only
		data[len(data)/2] ^= 0x01
		t.must(store.Put(ctx, key, data))
	}
	rot(0)
	t.wantBody("k", payload)
	for slot := 1; slot < len(meta.Chunks); slot++ {
		rot(slot)
	}
	_, _, err := t.Get(ctx, t.container, "k")
	t.wantErr(err, scalia.ErrChecksum, "read of an object rotten beyond its spares")
	if st := t.stats(); st.ReadPath.CorruptChunks < int64(len(meta.Chunks)-meta.M+1) {
		t.Fatalf("CorruptChunks = %d after a read that ran out of good chunks", st.ReadPath.CorruptChunks)
	}
}

func optimizeMigratesHotObject(t *tc, clock *engine.SimClock) {
	payload := make([]byte, 1<<20)
	before := t.put("hot", payload)
	for h := 0; h < 5; h++ {
		clock.Advance(1)
		for r := 0; r < 120; r++ {
			rc, _, err := t.GetReader(ctx, t.container, "hot")
			t.must(err)
			io.Copy(io.Discard, rc) //nolint:errcheck
			rc.Close()
		}
		rep, err := t.Optimize(ctx)
		if err != nil || rep.Leader == "" {
			t.Fatalf("Optimize = %+v, %v", rep, err)
		}
	}
	after := t.wantBody("hot", payload)
	if after.M != 1 || before.M == 1 {
		t.Fatalf("hot object placement m=%d (was %d), want a migration to m:1", after.M, before.M)
	}
	st := t.stats()
	if st.Optimizer.Migrated == 0 || st.CostUSD <= 0 || st.Usage.BandwidthOutGB <= 0 {
		t.Fatalf("stats after migration = %+v", st)
	}
}

func asyncJobs(t *tc) {
	t.put("k", []byte("async"))
	rjob, err := t.StartRepair(ctx, scalia.RepairActive)
	t.must(err)
	if rjob.ID == "" || rjob.Kind != scalia.JobRepair || rjob.Policy != "active" {
		t.Fatalf("dispatched job = %+v", rjob)
	}
	rjob, err = t.WaitForJob(ctx, rjob.ID, time.Millisecond)
	if err != nil || rjob.State != scalia.JobDone || rjob.Repair == nil || rjob.FinishedAt == nil {
		t.Fatalf("finished repair job = %+v, %v", rjob, err)
	}
	ojob, err := t.StartOptimize(ctx)
	t.must(err)
	ojob, err = t.WaitForJob(ctx, ojob.ID, time.Millisecond)
	if err != nil || ojob.State != scalia.JobDone || ojob.Optimize == nil || ojob.Optimize.Leader == "" {
		t.Fatalf("finished optimize job = %+v, %v", ojob, err)
	}
	if got, err := t.Job(ctx, rjob.ID); err != nil || got.ID != rjob.ID || got.State != scalia.JobDone {
		t.Fatalf("Job = %+v, %v", got, err)
	}

	// The two jobs page back in creation order, one per page.
	page, err := t.Jobs(ctx, scalia.ListOptions{Prefix: rjob.ID, Limit: 1})
	if err != nil || len(page.Jobs) != 1 || page.Jobs[0].ID != rjob.ID || page.Truncated {
		t.Fatalf("page by prefix = %+v, %v", page, err)
	}
	var ids []string
	opts := scalia.ListOptions{Limit: 1}
	for {
		page, err := t.Jobs(ctx, opts)
		t.must(err)
		if len(page.Jobs) > 1 || (page.Truncated && page.Next != page.Jobs[0].ID) {
			t.Fatalf("page = %+v", page)
		}
		for _, j := range page.Jobs {
			ids = append(ids, j.ID)
		}
		if !page.Truncated {
			break
		}
		opts.After = page.Next
	}
	if n := len(ids); n < 2 || ids[n-2] != rjob.ID || ids[n-1] != ojob.ID {
		t.Fatalf("job listing = %v, want … %s %s", ids, rjob.ID, ojob.ID)
	}

	_, err = t.Job(ctx, "j99999999")
	t.wantErr(err, scalia.ErrObjectNotFound, "unknown job")
	t.wantErr(err, scalia.ErrJobNotFound, "unknown job")
	_, err = t.WaitForJob(ctx, "j99999999", 0)
	t.wantErr(err, scalia.ErrJobNotFound, "wait for an unknown job")
}

func stats(t *tc) {
	t.put("k1", []byte("stats"))
	t.put("k2", []byte("stats2")) // same rule shape: a planner cache hit
	if _, err := t.Optimize(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := t.Repair(ctx, scalia.RepairActive); err != nil {
		t.Fatal(err)
	}
	st := t.stats()
	provs, _ := t.Providers(ctx)
	switch {
	case st.Planner.Misses == 0 || st.Planner.Hits == 0:
		t.Fatalf("planner counters = %+v", st.Planner)
	case st.Optimizer.Rounds == 0 || st.Repair.Passes == 0:
		t.Fatalf("maintenance totals = %+v, %+v", st.Optimizer, st.Repair)
	case st.Usage.Ops == 0 || st.CostUSD <= 0:
		t.Fatalf("usage = %+v, cost %v", st.Usage, st.CostUSD)
	case st.Engines == 0 || st.Providers != len(provs) || st.StripeBytes <= 0:
		t.Fatalf("deployment shape = %+v", st)
	case st.WritePath.StripesWritten < 2 || st.WritePath.StripesInFlight != 0:
		t.Fatalf("write path = %+v", st.WritePath)
	}
}
