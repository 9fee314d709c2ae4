// Parity fixture (frozen): cross-shard offences in the CLI.

fn peek(run: &ShardedRun) -> u64 {
    let t = &run.shards[2].table;
    t.len()
}

fn sanctioned_iteration(run: &ShardedRun) -> usize {
    run.shards.iter().count()
}

fn keyless_home(run: &ShardedRun) -> u64 {
    let t = &run.shards[0].table; // lint: shard-ok (shard 0 is the keyless home)
    t.len()
}
