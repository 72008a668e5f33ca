package vindex

// MinShard exposes the shard threshold to the external tests.
const MinShard = minShard
