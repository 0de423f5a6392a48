package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
)

// numClients is fixed: the reference box has two cores, and the load
// shape must not change with the machine or numbers stop comparing.
const numClients = 2

// headerBytes is the stamped (key, version) prefix of every payload.
const headerBytes = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// op is one generated foreground operation on a key of the client's
// own partition.
type op struct {
	kind opKind
	key  int // global key index; key % numClients == client id
}

// opGen produces a client's op sequence as a pure function of (seed,
// client id, workload shape). It never looks at results: it assumes
// its PUTs succeed, and the program only ever sees the requests.
type opGen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	client  int
	creates bool // PUTs create fresh keys instead of overwriting
	live    int  // keys of this partition that exist (0..live-1 by rank)
	// Kinds are dealt in shuffled blocks holding exactly putShare PUTs:
	// still a seeded pseudo-random order, but the realised mix cannot
	// drift from the nominal one. PUTs and GETs cost very different
	// amounts, so a Bernoulli mix put 5 % seed-to-seed noise on ops_per_s.
	block    [mixBlock]bool
	blockPos int
	putsPer  int
}

// mixBlock is the length of one shuffled block of op kinds; every
// workload's PUT share is a whole number of ops in it.
const mixBlock = 20

// newOpGen builds the generator for one client. ownKeys is how many
// preloaded keys the client's partition holds.
func newOpGen(seed int64, client, ownKeys int, putShare float64, creates bool, zipfS float64) *opGen {
	g := &opGen{
		rng:      rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + 1)),
		client:   client,
		creates:  creates,
		live:     ownKeys,
		putsPer:  int(putShare*mixBlock + 0.5),
		blockPos: mixBlock,
	}
	if zipfS > 1 {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(ownKeys-1))
	}
	return g
}

// keyOfRank maps the client's r-th key to its global index.
func (g *opGen) keyOfRank(r int) int { return r*numClients + g.client }

func (g *opGen) pick() int {
	if g.zipf != nil {
		return g.keyOfRank(int(g.zipf.Uint64()))
	}
	return g.keyOfRank(g.rng.Intn(g.live))
}

// next returns the client's next op.
func (g *opGen) next() op {
	if g.blockPos == mixBlock {
		for i := range g.block {
			g.block[i] = i < g.putsPer
		}
		g.rng.Shuffle(mixBlock, func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		g.blockPos = 0
	}
	put := g.block[g.blockPos]
	g.blockPos++
	return g.nextOf(put)
}

// nextGet returns a GET on the next key (degraded phase of small-maint).
func (g *opGen) nextGet() op { return g.nextOf(false) }

func (g *opGen) nextOf(put bool) op {
	if !put {
		return op{opGet, g.pick()}
	}
	if g.creates {
		k := g.keyOfRank(g.live)
		g.live++
		return op{opPut, k}
	}
	return op{opPut, g.pick()}
}

// keyState is what a client last wrote under one of its keys.
type keyState struct {
	version uint32
	crc     uint32
	live    bool
}

// payloads stamps and checks object bodies: one shared seeded buffer,
// whose first headerBytes are replaced per (key, version), so every
// version of every key has distinct content at no generation cost.
type payloads struct {
	base []byte // one object long
}

func newPayloads(seed int64, size int) *payloads {
	base := make([]byte, size)
	rand.New(rand.NewSource(seed ^ 0x5ca11a)).Read(base) //nolint:errcheck // never fails
	return &payloads{base: base}
}

// header renders the stamp of (key, version).
func header(key int, version uint32) [headerBytes]byte {
	var h [headerBytes]byte
	binary.LittleEndian.PutUint64(h[0:], uint64(key))
	binary.LittleEndian.PutUint32(h[8:], version)
	binary.LittleEndian.PutUint32(h[12:], ^version)
	return h
}

// crcOf is the CRC-32C of the payload stamped with h.
func (p *payloads) crcOf(h [headerBytes]byte) uint32 {
	c := crc32.Update(0, castagnoli, h[:])
	return crc32.Update(c, castagnoli, p.base[headerBytes:])
}

func keyName(k int) string { return fmt.Sprintf("k%07d", k) }
