//! Live-resharding correctness under concurrent load: 4 dispatcher
//! threads hammer GET/SET through `ServingCore::process_batch` while
//! the main thread runs a live 1→4 shard resize. Every thread owns a
//! disjoint key range and checks read-your-writes on every round, so a
//! single lost update, stale read, or wrong response fails the test.
//! The controller tests hold the control plane to one thread. Runs
//! under the nightly TSan job as well (see `.github/workflows`).

use dido::{DidoOptions, ServingCore};
use dido_model::{Clock, MockClock, Query, ResponseStatus, SharedClock};
use dido_pipeline::{EngineConfig, ShardedEngine, TestbedOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const THREADS: usize = 4;
const KEYS_PER_THREAD: usize = 100;
/// Bounded so overwrite garbage can never pressure the store into
/// evicting a live key (which would be legitimate cache behavior, not a
/// migration bug, but would still fail the lost-update assertions).
const MAX_ROUNDS: usize = 250;

fn options() -> DidoOptions {
    DidoOptions {
        testbed: TestbedOptions {
            store_bytes: 64 << 20,
            ..TestbedOptions::default()
        },
        ..DidoOptions::default()
    }
}

fn key(t: usize, i: usize) -> String {
    format!("t{t}-key-{i}")
}

fn val(t: usize, i: usize, round: usize) -> String {
    format!("t{t}-v{i}-r{round}")
}

#[test]
fn live_resize_loses_no_updates_under_concurrent_get_set() {
    let core = Arc::new(ServingCore::new(1, THREADS, options()));
    assert_eq!(core.shard_count(), 1);

    // Seed round 0 so every GET should hit from the start.
    for t in 0..THREADS {
        for i in 0..KEYS_PER_THREAD {
            core.engine()
                .load(key(t, i).as_bytes(), val(t, i, 0).as_bytes())
                .expect("seed fits");
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for t in 0..THREADS {
        let core = Arc::clone(&core);
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || -> Result<usize, String> {
            let mut round = 0usize;
            while !stop.load(Ordering::Acquire) && round + 1 < MAX_ROUNDS {
                round += 1;
                // One batch interleaving SET (this round) and GET, so
                // intra-batch read-your-writes is exercised too.
                let mut batch = Vec::with_capacity(KEYS_PER_THREAD * 2);
                for i in 0..KEYS_PER_THREAD {
                    batch.push(Query::set(key(t, i), val(t, i, round)));
                    batch.push(Query::get(key(t, i)));
                }
                let responses = core.process_batch(t, batch);
                for (i, pair) in responses.chunks(2).enumerate() {
                    if pair[0].status != ResponseStatus::Ok {
                        return Err(format!("t{t} r{round}: SET {i} failed"));
                    }
                    if pair[1].status != ResponseStatus::Ok {
                        return Err(format!("t{t} r{round}: GET {i} missed"));
                    }
                    let want = val(t, i, round);
                    if pair[1].value != want.as_bytes() {
                        return Err(format!(
                            "t{t} r{round}: GET {i} returned {:?}, want {want}",
                            String::from_utf8_lossy(&pair[1].value)
                        ));
                    }
                }
            }
            Ok(round)
        }));
    }

    // Let the dispatchers get going, then resize live — draining and
    // settling on this thread — while they keep hammering.
    std::thread::sleep(Duration::from_millis(30));
    core.resize(4).expect("resize settles");
    assert_eq!(core.shard_count(), 4);
    assert!(!core.is_migrating(), "settled when resize returns");
    // A little more traffic against the settled 4-shard map.
    std::thread::sleep(Duration::from_millis(20));
    stop.store(true, Ordering::Release);

    let mut last_round = [0usize; THREADS];
    for (t, w) in workers.into_iter().enumerate() {
        match w.join().expect("worker panicked") {
            Ok(r) => last_round[t] = r,
            Err(e) => panic!("lost update: {e}"),
        }
    }

    // Nothing was dropped by the migration and the final state is the
    // last value each thread wrote.
    assert_eq!(core.engine().migrate_dropped(), 0);
    assert_eq!(core.metrics().control.resizes, 1);
    for (t, &round) in last_round.iter().enumerate() {
        for i in 0..KEYS_PER_THREAD {
            let r = core.execute(&Query::get(key(t, i)));
            assert_eq!(r.status, ResponseStatus::Ok, "{} lost", key(t, i));
            assert_eq!(
                r.value,
                val(t, i, round).as_bytes(),
                "{} holds a stale value after the resize",
                key(t, i)
            );
        }
    }
}

#[test]
fn live_resize_under_ttl_churn_expires_neither_early_nor_late() {
    // A live 1→4 resize while every thread churns three key families on
    // a mock clock the main thread advances mid-migration:
    //
    // * immortal (ttl 0) — must hit for the whole run and after it;
    // * long TTL — deadline far past the run; a miss means the deadline
    //   was lost or mangled in a donor→primary move (early expiry);
    // * short TTL — re-set every round; a hit after its recorded
    //   deadline window means a donor resurrected an expired key (late
    //   expiry), a miss before it means early expiry.
    //
    // Deadlines are tracked as [min, max] bounds from clock samples
    // around each batch, so the checks are exact without assuming when
    // inside the batch the engine sampled `now`.
    const SHORT_TTL: u32 = 3;
    const LONG_TTL: u32 = 10_000;
    const KEYS: usize = 40;
    const START: u32 = 1_000;

    let clock = Arc::new(MockClock::at(START));
    let engine = ShardedEngine::with_clock(
        1,
        EngineConfig::new(64 << 20, 64 << 10, 16 << 10),
        Arc::clone(&clock) as SharedClock,
    );
    let core = Arc::new(ServingCore::from_engine(engine, THREADS, options()));
    assert_eq!(core.shard_count(), 1);

    let mortal = |t: usize, i: usize| format!("t{t}-mortal-{i}");
    let immortal = |t: usize, i: usize| format!("t{t}-immortal-{i}");
    let longk = |t: usize, i: usize| format!("t{t}-long-{i}");

    // Seed all three families through the real write path (ttl rides
    // the query), before any clock advance: deadlines are exact.
    for t in 0..THREADS {
        let mut batch = Vec::with_capacity(KEYS * 3);
        for i in 0..KEYS {
            batch.push(Query::set_with(mortal(t, i), val(t, i, 0), SHORT_TTL, 0));
            batch.push(Query::set_with(immortal(t, i), val(t, i, 0), 0, 0));
            batch.push(Query::set_with(longk(t, i), val(t, i, 0), LONG_TTL, 0));
        }
        for r in core.process_batch(0, batch) {
            assert_eq!(r.status, ResponseStatus::Ok, "seed SET failed");
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for t in 0..THREADS {
        let core = Arc::clone(&core);
        let clock = Arc::clone(&clock);
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || -> Result<usize, String> {
            // Per-key deadline bounds and round of the last mortal SET.
            // Inserts run before searches inside one pipeline batch
            // (MM → IN → KC task order), so write rounds alternate with
            // GET-only rounds: only the latter can observe expiry.
            let mut bounds = vec![(START + SHORT_TTL, START + SHORT_TTL); KEYS];
            let mut last_write = 0usize;
            let mut round = 0usize;
            while !stop.load(Ordering::Acquire) && round + 1 < MAX_ROUNDS {
                round += 1;
                let writing = round % 2 == 1;
                let per_key = if writing { 4 } else { 3 };
                let now0 = clock.now_secs();
                let mut batch = Vec::with_capacity(KEYS * per_key);
                for i in 0..KEYS {
                    if writing {
                        // Inserts apply before searches wherever in
                        // the batch either sits, settled or migrating,
                        // so the GET below observes this round's value.
                        batch.push(Query::set_with(mortal(t, i), val(t, i, round), SHORT_TTL, 0));
                    }
                    batch.push(Query::get(mortal(t, i)));
                    batch.push(Query::get(immortal(t, i)));
                    batch.push(Query::get(longk(t, i)));
                }
                let responses = core.process_batch(t, batch);
                let now1 = clock.now_secs();
                for (i, qs) in responses.chunks(per_key).enumerate() {
                    let (min_dl, max_dl) = bounds[i];
                    // In writing rounds the chunk is [SET, GETs...];
                    // otherwise it is just the three GETs.
                    let qs = if writing {
                        if qs[0].status != ResponseStatus::Ok {
                            return Err(format!("t{t} r{round}: mortal SET {i} failed"));
                        }
                        &qs[1..]
                    } else {
                        qs
                    };
                    if writing {
                        match qs[0].status {
                            ResponseStatus::Ok
                                if qs[0].value != val(t, i, round).as_bytes() =>
                            {
                                return Err(format!(
                                    "t{t} r{round}: mortal {i} stale value: got {:?}, want {:?}",
                                    String::from_utf8_lossy(&qs[0].value),
                                    val(t, i, round)
                                ));
                            }
                            ResponseStatus::Ok => {}
                            // The clock can advance past SHORT_TTL while
                            // the batch is in flight (1-core CI stalls),
                            // in which case expiring the just-written key
                            // before the search stage is correct. Only a
                            // miss inside the TTL window is a bug.
                            _ if now1 - now0 < SHORT_TTL => {
                                return Err(format!(
                                    "t{t} r{round}: mortal {i} missed its own SET \
                                     ({now0}..{now1}, ttl {SHORT_TTL})"
                                ));
                            }
                            _ => {}
                        }
                        bounds[i] = (now0 + SHORT_TTL, now1 + SHORT_TTL);
                        last_write = round;
                    } else {
                        match qs[0].status {
                            ResponseStatus::Ok => {
                                // A hit after every possible deadline
                                // passed is a resurrection.
                                if now0 >= max_dl {
                                    return Err(format!(
                                        "t{t} r{round}: mortal {i} hit at {now0}, \
                                         deadline <= {max_dl}"
                                    ));
                                }
                                if qs[0].value != val(t, i, last_write).as_bytes() {
                                    return Err(format!("t{t} r{round}: mortal {i} stale value"));
                                }
                            }
                            // A miss before any deadline could pass is
                            // an early expiry (or a migration drop).
                            _ if now1 < min_dl => {
                                return Err(format!(
                                    "t{t} r{round}: mortal {i} missed at {now1}, \
                                     deadline >= {min_dl}"
                                ));
                            }
                            _ => {}
                        }
                    }
                    if qs[1].status != ResponseStatus::Ok {
                        return Err(format!("t{t} r{round}: immortal {i} missed"));
                    }
                    if qs[2].status != ResponseStatus::Ok {
                        return Err(format!("t{t} r{round}: long-ttl {i} expired early"));
                    }
                }
            }
            Ok(round)
        }));
    }

    // Resize live on this thread while a second one advances the clock
    // and runs sweeps throughout — expiry churn lands mid-migration on
    // purpose, and sweep races migrate.
    std::thread::sleep(Duration::from_millis(10));
    let resized = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !resized.load(Ordering::Acquire) {
                clock.advance(1);
                core.sweep_tick();
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let outcome = core.resize(4);
        resized.store(true, Ordering::Release);
        outcome.expect("resize settles");
    });
    assert_eq!(core.shard_count(), 4);
    for _ in 0..(SHORT_TTL * 3) {
        clock.advance(1);
        core.sweep_tick();
        std::thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, Ordering::Release);
    for w in workers {
        if let Err(e) = w.join().expect("worker panicked") {
            panic!("TTL violation across live resize: {e}");
        }
    }

    assert_eq!(core.engine().migrate_dropped(), 0);
    assert_eq!(core.metrics().control.resizes, 1);

    // Post-settle: mortals are dead once their last deadline passes,
    // immortals and long-TTL keys live on — nothing resurrected, and
    // no deadline was lost crossing the donor.
    clock.advance(SHORT_TTL + 2);
    core.sweep_tick();
    for t in 0..THREADS {
        for i in 0..KEYS {
            let m = core.execute(&Query::get(mortal(t, i)));
            assert_eq!(
                m.status,
                ResponseStatus::NotFound,
                "{} outlived its TTL across the resize",
                mortal(t, i)
            );
            assert_eq!(
                core.execute(&Query::get(immortal(t, i))).status,
                ResponseStatus::Ok,
                "{} lost",
                immortal(t, i)
            );
            assert_eq!(
                core.execute(&Query::get(longk(t, i))).status,
                ResponseStatus::Ok,
                "{} expired early after the resize",
                longk(t, i)
            );
        }
    }

    // And once the long deadline passes, that family dies too.
    clock.advance(LONG_TTL);
    core.sweep_tick();
    for t in 0..THREADS {
        for i in 0..KEYS {
            assert_eq!(
                core.execute(&Query::get(longk(t, i))).status,
                ResponseStatus::NotFound,
                "{} resurrected past its deadline",
                longk(t, i)
            );
            assert_eq!(
                core.execute(&Query::get(immortal(t, i))).status,
                ResponseStatus::Ok,
                "{} must never expire",
                immortal(t, i)
            );
        }
    }

    // The run actually exercised both expiry paths' counters.
    let fold = core.metrics().memory;
    assert!(
        fold.expired_proactive + fold.expired_lazy > 0,
        "no expirations recorded: {fold:?}"
    );
}

#[test]
fn resize_request_is_served_by_the_controller_loop() {
    let core = Arc::new(ServingCore::new(2, 1, options()));
    for i in 0..200 {
        core.engine()
            .load(format!("ctl-{i}").as_bytes(), b"v")
            .expect("seed fits");
    }
    let handle = ServingCore::spawn_controller(Arc::clone(&core), Duration::from_millis(1));
    core.request_resize(3);
    // The controller takes the request on its next loop and drains the
    // migration itself; wait for the map to settle (bounded).
    for _ in 0..500 {
        if core.shard_count() == 3 && !core.is_migrating() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    handle.stop();
    assert_eq!(core.shard_count(), 3);
    assert!(!core.is_migrating());
    for i in 0..200 {
        assert_eq!(
            core.execute(&Query::get(format!("ctl-{i}"))).status,
            ResponseStatus::Ok,
            "ctl-{i} lost in controller-driven resize"
        );
    }
}

/// Names of this process's live threads (`/proc/self/task/*/comm`).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

#[test]
fn the_controller_is_the_only_control_thread() {
    // Enough keys that a drain spans many controller periods, so the
    // second request lands (and sweeps run) while the first migrates.
    const KEYS: usize = 100_000;
    let core = Arc::new(ServingCore::new(2, 1, options()));
    let key = |i: usize| format!("ctl-{i}");
    let readable = |i: &usize| core.execute(&Query::get(key(*i))).status == ResponseStatus::Ok;
    for i in 0..KEYS {
        core.engine()
            .load(key(i).as_bytes(), b"v")
            .expect("seed fits");
    }
    // The index matches on 16 signature bits, so among this many keys a
    // few displace each other at load (cache semantics, and the hashes
    // are fixed: the same few every run). The rest must all survive.
    let seeded: Vec<usize> = (0..KEYS).filter(readable).collect();
    assert!(seeded.len() + 8 > KEYS, "{} of {KEYS} seeded", seeded.len());
    let sweeps = || core.metrics().control.sweeps;
    let handle = ServingCore::spawn_controller(Arc::clone(&core), Duration::from_millis(1));

    core.request_resize(3);
    while !core.is_migrating() {
        assert_eq!(
            core.shard_count(),
            2,
            "2→3 settled before it was seen migrating"
        );
        std::thread::yield_now();
    }
    // A request made while a migration drains waits for the map to
    // settle instead of being dropped: the last request wins.
    core.request_resize(4);
    let sweeps_at_request = sweeps();
    let mut swept_while_migrating = false;
    let mut names_while_migrating = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while core.is_migrating() || core.shard_count() != 4 {
        assert!(
            std::time::Instant::now() < deadline,
            "the second request was dropped: settled at {} shards",
            core.shard_count()
        );
        if core.is_migrating() {
            swept_while_migrating |= sweeps() > sweeps_at_request;
            if names_while_migrating.is_empty() {
                names_while_migrating = thread_names();
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    handle.stop();

    assert_eq!(core.shard_count(), 4);
    assert_eq!(core.metrics().control.resizes, 2, "2→3 settled, then 3→4");
    assert_eq!(core.engine().migrate_dropped(), 0);
    assert!(
        swept_while_migrating,
        "the controller keeps sweeping between migration chunks"
    );
    assert!(
        names_while_migrating.iter().any(|n| n == "dido-controller"),
        "{names_while_migrating:?}"
    );
    assert!(
        !names_while_migrating.iter().any(|n| n == "dido-reshard"),
        "migration runs on the controller, not a worker: {names_while_migrating:?}"
    );
    let lost: Vec<&usize> = seeded.iter().filter(|i| !readable(i)).collect();
    assert!(
        lost.is_empty(),
        "lost in controller-driven resizes: {lost:?}"
    );
}
