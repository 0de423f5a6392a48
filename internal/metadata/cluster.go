package metadata

import (
	"sync"
)

// replEvent is one version awaiting delivery to a peer datacenter.
type replEvent struct {
	row string
	v   Version
}

// Cluster wires several datacenter Stores into a multi-master replicated
// database. A write is delivered to every peer it can reach before Put
// returns; a peer behind a severed link (Partition) or down keeps the
// write queued, and Flush — the one heal path — delivers the queues once
// the link is back. A conflict one node collapses on a read is collapsed
// by every other node on its own read, to the same winner. Reads are
// served by the local node (eventual consistency), matching the paper's
// Cassandra deployment.
type Cluster struct {
	// flushMu serializes Flush calls: one that takes events off the
	// queues delivers them before the next looks, so a returning Flush
	// has seen everything queued before it started delivered.
	flushMu sync.Mutex
	mu      sync.Mutex
	stores  []*Store
	queues  map[string]map[string][]replEvent // src -> dst -> pending
	links   map[string]map[string]bool        // src -> dst -> up
}

// NewCluster builds a cluster over the given datacenter nodes; all
// inter-DC links start connected.
func NewCluster(stores ...*Store) *Cluster {
	c := &Cluster{
		stores: stores,
		queues: make(map[string]map[string][]replEvent),
		links:  make(map[string]map[string]bool),
	}
	for _, src := range stores {
		c.queues[src.Node()] = make(map[string][]replEvent)
		c.links[src.Node()] = make(map[string]bool)
		for _, dst := range stores {
			if src != dst {
				c.links[src.Node()][dst.Node()] = true
			}
		}
	}
	return c
}

// Store returns the node with the given name, or nil.
func (c *Cluster) Store(node string) *Store {
	for _, s := range c.stores {
		if s.Node() == node {
			return s
		}
	}
	return nil
}

// Put writes through the named node and delivers the post-write head
// set (the version as causally stamped by the source node, a tombstone
// like any other) to every peer whose link is up, whose node is available
// and whose queue from this node is empty — a write never overtakes one
// queued before it. Every other peer gets the heads queued. Delivery runs
// outside the cluster lock: one commit does not stall the others while it
// writes to a peer.
func (c *Cluster) Put(node, row string, v Version) error {
	src := c.Store(node)
	if src == nil {
		return ErrNodeDown
	}
	heads, err := src.Put(row, v)
	if err != nil {
		return err
	}
	events := make([]replEvent, len(heads))
	for i, h := range heads {
		events[i] = replEvent{row: row, v: h}
	}
	var direct []*Store
	c.mu.Lock()
	queues := c.queues[node]
	for _, dst := range c.stores {
		switch {
		case dst == src:
		case c.links[node][dst.Node()] && len(queues[dst.Node()]) == 0 && dst.Available():
			direct = append(direct, dst)
		default:
			queues[dst.Node()] = append(queues[dst.Node()], events...)
		}
	}
	c.mu.Unlock()
	for _, dst := range direct {
		for _, ev := range events {
			c.deliver(node, dst, ev)
		}
	}
	return nil
}

// deliver merges one event into dst; a node that went down since it was
// checked keeps the event queued. It reports whether the event landed.
func (c *Cluster) deliver(src string, dst *Store, ev replEvent) bool {
	if err := dst.merge(ev.row, ev.v); err != nil {
		c.mu.Lock()
		c.queues[src][dst.Node()] = append(c.queues[src][dst.Node()], ev)
		c.mu.Unlock()
		return false
	}
	return true
}

// Partition severs the links between two nodes in both directions;
// writes keep queueing locally.
func (c *Cluster) Partition(a, b string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.links[a][b] = false
	c.links[b][a] = false
}

// Heal restores the links between two nodes.
func (c *Cluster) Heal(a, b string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.links[a][b] = true
	c.links[b][a] = true
}

// Flush delivers every queued replication event whose link is up — the
// heal path after Partition/Heal or a node outage. Returns the number of
// delivered events.
func (c *Cluster) Flush() int {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	c.mu.Lock()
	type delivery struct {
		src, dst string
		ev       replEvent
	}
	var deliveries []delivery
	for srcName, byDst := range c.queues {
		for dstName, events := range byDst {
			if !c.links[srcName][dstName] {
				continue
			}
			dst := c.Store(dstName)
			if dst == nil || !dst.Available() {
				continue
			}
			for _, ev := range events {
				deliveries = append(deliveries, delivery{src: srcName, dst: dstName, ev: ev})
			}
			c.queues[srcName][dstName] = nil
		}
	}
	c.mu.Unlock()

	delivered := 0
	for _, d := range deliveries {
		if c.deliver(d.src, c.Store(d.dst), d.ev) {
			delivered++
		}
	}
	return delivered
}
