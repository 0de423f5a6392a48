// Private-store: hybrid placement across public providers and a
// corporate private storage resource (§III-E). A real HTTP web service
// exposes a local directory with HMAC-signed requests; Scalia registers
// it with its capacity and prices and the placement engine uses it like
// any public provider — until it fills up, after which demand spills to
// the public clouds.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"

	"scalia"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "scalia-private-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The corporate NAS: 64 KB of capacity, effectively free.
	token := []byte("corp-private-token")
	const capacity = 64 << 10
	server, err := scalia.NewPrivateStoreServer(dir, token, capacity)
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(server)
	defer ts.Close()
	fmt.Printf("private store serving %s at %s\n", dir, ts.URL)

	client, err := scalia.New(scalia.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	err = client.AddPrivateResource(ts.URL, token, scalia.Provider{
		Name:          "corp-nas",
		Description:   "corporate NAS behind the privstore web service",
		Durability:    0.999999,
		Availability:  0.999,
		Zones:         []scalia.Zone{scalia.ZoneEU},
		Pricing:       scalia.Pricing{StorageGBMonth: 0.001, BandwidthInGB: 0, BandwidthOutGB: 0},
		CapacityBytes: capacity,
	})
	if err != nil {
		log.Fatal(err)
	}

	rule := scalia.Rule{Name: "hybrid", Durability: 0.99999, Availability: 0.9999, LockIn: 1}
	// Small objects fit the NAS and the engine prefers its near-zero
	// prices; once it is full, placement spills to public providers only.
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("doc-%d", i)
		meta, err := client.Put(ctx, "corp", key, make([]byte, 20<<10), scalia.WithRule(rule))
		if err != nil {
			log.Fatal(err)
		}
		private := false
		for _, p := range meta.Chunks {
			if p == "corp-nas" {
				private = true
			}
		}
		fmt.Printf("%s: m=%d placement=%v private=%v\n", key, meta.M, meta.Chunks, private)
	}

	// The data is really on disk, behind authenticated HTTP.
	resp, err := http.Get(ts.URL + "/list")
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("unauthenticated /list request -> HTTP %d (signature required)\n", resp.StatusCode)

	entries, _ := os.ReadDir(dir)
	fmt.Printf("private store holds %d chunk files, %d bytes used\n",
		len(entries), server.UsedBytes())

	// Round-trip through the broker still works.
	data, _, err := client.Get(ctx, "corp", "doc-0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read doc-0 back: %d bytes\n", len(data))
}
