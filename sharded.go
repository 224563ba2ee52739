package ortoa

import (
	"fmt"
	"sort"

	"ortoa/internal/core"
)

// A ShardedClient partitions keys across multiple independent
// deployments (proxy/server pairs), the scaling strategy of §6.2.4:
// "the system can scale the number of proxies without compromising
// security", since ORTOA hides operation types, not which shard a key
// lives on.
type ShardedClient struct {
	shards []*Client
	// placement maps each counter range to the shard holding its keys.
	placement [core.NumRanges]int
}

// NewShardedClient combines clients into one sharded deployment. All
// clients must share a value size. The shard order defines the
// partition: reconnect with the same order to reach the same data.
func NewShardedClient(clients []*Client) (*ShardedClient, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("ortoa: NewShardedClient requires at least one client")
	}
	size := clients[0].ValueSize()
	for i, c := range clients {
		if c.ValueSize() != size {
			return nil, fmt.Errorf("ortoa: shard %d has value size %d, shard 0 has %d", i, c.ValueSize(), size)
		}
	}
	return &ShardedClient{shards: clients, placement: core.RangePlacement(len(clients))}, nil
}

// Shards returns the number of partitions.
func (s *ShardedClient) Shards() int { return len(s.shards) }

// shardIndex is the partition function: the key's counter range, placed
// on a shard by a consistent-hash ring over the shard positions — the
// same unit and ring that place keys on proxies, so adding a shard moves
// whole ranges and only those that must move. It is the single source of truth for
// placement — Load, the access paths, and the batch paths all route
// through it, so the mapping cannot silently diverge between loading
// and accessing.
func (s *ShardedClient) shardIndex(key string) int {
	return s.placement[core.RangeOf(key)]
}

func (s *ShardedClient) shardFor(key string) *Client {
	return s.shards[s.shardIndex(key)]
}

// Load partitions data across shards and bulk-loads each.
func (s *ShardedClient) Load(data map[string][]byte) error {
	parts := make([]map[string][]byte, len(s.shards))
	for i := range parts {
		parts[i] = make(map[string][]byte)
	}
	for k, v := range data {
		parts[s.shardIndex(k)][k] = v
	}
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		if err := s.shards[i].Load(part); err != nil {
			return fmt.Errorf("ortoa: loading shard %d: %w", i, err)
		}
	}
	return nil
}

// Read obliviously reads key from its owning shard.
func (s *ShardedClient) Read(key string) ([]byte, error) {
	return s.shardFor(key).Read(key)
}

// Write obliviously writes key on its owning shard.
func (s *ShardedClient) Write(key string, value []byte) error {
	return s.shardFor(key).Write(key, value)
}

// ReadBatch obliviously reads many keys, returning values in input
// order. Keys are grouped by owning shard and each shard's group is
// issued as one batched call, all shards in parallel — so a batch
// costs one round trip per touched shard rather than one per key.
func (s *ShardedClient) ReadBatch(keys []string) ([]KVPair, error) {
	perShard := make([][]string, len(s.shards))
	positions := make([][]int, len(s.shards))
	for i, key := range keys {
		si := s.shardIndex(key)
		perShard[si] = append(perShard[si], key)
		positions[si] = append(positions[si], i)
	}
	out := make([]KVPair, len(keys))
	err := core.ForEach(len(s.shards), len(s.shards), func(si int) error {
		if len(perShard[si]) == 0 {
			return nil
		}
		pairs, err := s.shards[si].ReadBatch(perShard[si])
		if err != nil {
			return fmt.Errorf("ortoa: shard %d batch read: %w", si, err)
		}
		for j, p := range pairs {
			out[positions[si][j]] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadRange reads up to limit consecutive keys starting at start
// (inclusive) in global primary-key order, like Client.ReadRange but
// across the partition: each shard contributes its next candidates
// from its own key directory, the candidates merge into one sorted
// run, and the first limit of them are fetched with ReadBatch — so
// the range costs at most one round trip per touched shard. Hash
// partitioning scatters consecutive keys across shards, which is
// exactly why the merge (rather than any single shard's directory)
// defines the global order.
func (s *ShardedClient) ReadRange(start string, limit int) ([]KVPair, error) {
	if limit <= 0 {
		return nil, nil
	}
	// Each shard's next `limit` keys ≥ start together cover the global
	// next `limit`: every global candidate lives on some shard, and no
	// shard needs to contribute more than limit of them. Keys are
	// unique across shards (each key has one owning shard), so the
	// merged run has no duplicates.
	var candidates []string
	for _, c := range s.shards {
		candidates = append(candidates, c.rangeKeys(start, limit)...)
	}
	sort.Strings(candidates)
	if len(candidates) > limit {
		candidates = candidates[:limit]
	}
	return s.ReadBatch(candidates)
}

// WriteBatch obliviously writes many entries, one batched call per
// touched shard, all shards in parallel.
func (s *ShardedClient) WriteBatch(entries map[string][]byte) error {
	perShard := make([]map[string][]byte, len(s.shards))
	for key, value := range entries {
		si := s.shardIndex(key)
		if perShard[si] == nil {
			perShard[si] = make(map[string][]byte)
		}
		perShard[si][key] = value
	}
	return core.ForEach(len(s.shards), len(s.shards), func(si int) error {
		if len(perShard[si]) == 0 {
			return nil
		}
		if err := s.shards[si].WriteBatch(perShard[si]); err != nil {
			return fmt.Errorf("ortoa: shard %d batch write: %w", si, err)
		}
		return nil
	})
}

// SaveState persists every shard's protocol state, suffixing the path
// with the shard index.
func (s *ShardedClient) SaveState(pathPrefix string) error {
	for i, c := range s.shards {
		if err := c.SaveState(fmt.Sprintf("%s.%d", pathPrefix, i)); err != nil {
			return fmt.Errorf("ortoa: saving shard %d state: %w", i, err)
		}
	}
	return nil
}

// LoadState restores SaveState files.
func (s *ShardedClient) LoadState(pathPrefix string) error {
	for i, c := range s.shards {
		if err := c.LoadState(fmt.Sprintf("%s.%d", pathPrefix, i)); err != nil {
			return fmt.Errorf("ortoa: loading shard %d state: %w", i, err)
		}
	}
	return nil
}

// Close closes every shard client.
func (s *ShardedClient) Close() error {
	var first error
	for _, c := range s.shards {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
