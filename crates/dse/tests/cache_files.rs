//! The evaluation cache's file contract: a warm rerun that adds
//! nothing leaves its cache file untouched (bytes and mtime), and every
//! other save writes the canonical rendering.

use std::path::PathBuf;
use std::time::{Duration, SystemTime};
use uecgra_dfg::kernels::synthetic;
use uecgra_dse::{digest_bytes, explore, DseConfig, DseOutcome, EvalCache};
use uecgra_model::EnergyDelay;

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uecgra-dse-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn explore_toy(cache: &EvalCache) -> DseOutcome {
    let toy = synthetic::fig2_toy();
    explore(
        &toy.dfg,
        vec![0; 2048],
        toy.iter_marker,
        &[],
        &DseConfig::default(),
        cache,
    )
}

fn mtime(path: &str) -> SystemTime {
    std::fs::metadata(path).unwrap().modified().unwrap()
}

/// Pin `path`'s mtime to a fixed time in the past, so a rewrite (which
/// stamps "now") is visible whatever the filesystem's time granularity.
fn set_mtime(path: &str, secs: u64) -> SystemTime {
    let t = SystemTime::UNIX_EPOCH + Duration::from_secs(secs);
    std::fs::File::options()
        .write(true)
        .open(path)
        .unwrap()
        .set_modified(t)
        .unwrap();
    assert_eq!(mtime(path), t);
    t
}

/// A cold run's cache file, its bytes, and its pinned mtime.
fn cold_file(dir: &std::path::Path) -> (String, Vec<u8>, SystemTime) {
    let path = dir.join("cache.json").display().to_string();
    let cold = EvalCache::new();
    explore_toy(&cold);
    assert!(cold.save(&path).unwrap(), "a new cache writes");
    let stamp = set_mtime(&path, 1_000_000_000);
    (path.clone(), std::fs::read(&path).unwrap(), stamp)
}

fn extra_entry() -> (uecgra_dse::Digest, EnergyDelay) {
    let ed = EnergyDelay {
        throughput: 0.25,
        energy_per_iter: 3.5,
    };
    (digest_bytes(b"not a real configuration"), ed)
}

#[test]
fn a_fully_warm_save_leaves_the_file_alone() {
    let dir = scratch("warm");
    let (path, bytes, stamp) = cold_file(&dir);

    let warm = EvalCache::load(&path).unwrap();
    explore_toy(&warm);
    assert!(warm.hits() > 0);
    assert_eq!(warm.misses(), 0, "every lookup hits");
    assert!(!warm.save(&path).unwrap(), "nothing to write");
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    assert_eq!(mtime(&path), stamp, "not even rewritten in place");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_new_entry_rewrites_the_canonical_rendering() {
    let dir = scratch("insert");
    let (path, bytes, _) = cold_file(&dir);

    let cache = EvalCache::load(&path).unwrap();
    let (key, ed) = extra_entry();
    cache.insert(key, ed);
    assert!(cache.save(&path).unwrap());
    let written = std::fs::read_to_string(&path).unwrap();
    assert_eq!(written, cache.to_json().render());
    assert_ne!(written.as_bytes(), bytes);
    // The write re-synced the cache with its file: saving again is a
    // no-op.
    let stamp = mtime(&path);
    assert!(!cache.save(&path).unwrap());
    assert_eq!(mtime(&path), stamp);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_file_changed_on_disk_after_load_is_rewritten() {
    let dir = scratch("changed");
    let (path, bytes, _) = cold_file(&dir);

    // Same length, different mtime.
    let cache = EvalCache::load(&path).unwrap();
    set_mtime(&path, 1_000_000_100);
    assert!(cache.save(&path).unwrap(), "mtime moved");
    assert_eq!(std::fs::read(&path).unwrap(), bytes);

    // Different length, mtime put back to what load saw.
    let cache = EvalCache::load(&path).unwrap();
    let stamp = mtime(&path);
    std::fs::write(
        &path,
        format!("{}\n", String::from_utf8(bytes.clone()).unwrap()),
    )
    .unwrap();
    std::fs::File::options()
        .write(true)
        .open(&path)
        .unwrap()
        .set_modified(stamp)
        .unwrap();
    assert!(cache.save(&path).unwrap(), "length changed");
    assert_eq!(std::fs::read(&path).unwrap(), bytes);

    // Removed.
    let cache = EvalCache::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(cache.save(&path).unwrap(), "file removed");
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A file another process replaced by rename is rewritten even when
/// the replacement has the loaded file's length and mtime.
#[cfg(unix)]
#[test]
fn a_file_replaced_by_rename_is_rewritten() {
    let dir = scratch("renamed");
    let (path, bytes, stamp) = cold_file(&dir);

    let cache = EvalCache::load(&path).unwrap();
    let other = dir.join("other.json").display().to_string();
    std::fs::write(&other, &bytes).unwrap();
    std::fs::File::options()
        .write(true)
        .open(&other)
        .unwrap()
        .set_modified(stamp)
        .unwrap();
    std::fs::rename(&other, &path).unwrap();
    assert_eq!(mtime(&path), stamp);
    assert!(cache.save(&path).unwrap(), "a different file now");
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saving_to_another_path_writes_it() {
    let dir = scratch("second");
    let (path, bytes, stamp) = cold_file(&dir);
    let second = dir.join("second.json").display().to_string();

    let cache = EvalCache::load(&path).unwrap();
    assert!(cache.save(&second).unwrap());
    assert_eq!(std::fs::read(&second).unwrap(), bytes);
    assert_eq!(mtime(&path), stamp, "the loaded file is not touched");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_hand_formatted_file_is_left_as_it_is() {
    let dir = scratch("hand");
    let path = dir.join("cache.json").display().to_string();
    let (key, ed) = extra_entry();
    let hand = format!(
        "{{ \"entries\": {{ \"{key}\": {{ \"throughput\": 0.25, \"energy_per_iter\": 3.5 }} }},\n  \
         \"cache_format_version\": 1 }}"
    );
    std::fs::write(&path, &hand).unwrap();
    let cache = EvalCache::load(&path).unwrap();
    assert_eq!(cache.lookup(key), Some(ed));
    // Re-inserting the value the table already holds changes nothing.
    cache.insert(key, ed);
    assert!(!cache.save(&path).unwrap(), "loaded cleanly, nothing added");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), hand);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cache_that_never_came_from_a_file_writes() {
    let dir = scratch("fresh");
    let path = dir.join("cache.json").display().to_string();
    let cache = EvalCache::new();
    assert!(cache.save(&path).unwrap(), "even when empty");
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        cache.to_json().render()
    );
    // A load of a missing file is a cold start, not a match.
    let missing = dir.join("missing.json").display().to_string();
    let cold = EvalCache::load(&missing).unwrap();
    assert!(cold.save(&missing).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
