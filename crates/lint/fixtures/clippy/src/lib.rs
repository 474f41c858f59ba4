//! Fixture: one case per name the root `clippy.toml` bans. Every line
//! that ends in a BANNED comment naming a path must draw exactly one
//! clippy diagnostic naming that path, and no other line may draw one;
//! scripts/check.sh compares the two lists and fails on any difference.

use std::time::Instant as Clock;

pub fn wall_clock() -> std::time::Instant {
    std::time::Instant::now() // BANNED: std::time::Instant::now
}

pub fn aliased_wall_clock() -> Clock {
    Clock::now() // BANNED: std::time::Instant::now
}

pub fn epoch(t: std::time::SystemTime) -> bool { // BANNED: std::time::SystemTime
    t.elapsed().is_ok()
}

pub fn env_seed() -> Option<String> {
    std::env::var("QD_SEED").ok() // BANNED: std::env::var
}

pub fn env_seed_os() -> Option<std::ffi::OsString> {
    std::env::var_os("QD_SEED") // BANNED: std::env::var_os
}

pub fn env_all() -> usize {
    std::env::vars().count() // BANNED: std::env::vars
}

pub fn create(path: &str) -> std::io::Result<std::fs::File> {
    std::fs::File::create(path) // BANNED: std::fs::File::create
}

pub fn open_handle(path: &str) -> std::io::Result<std::fs::File> {
    std::fs::File::open(path) // BANNED: std::fs::File::open
}

pub fn open_options() -> std::fs::OpenOptions { // BANNED: std::fs::OpenOptions
    unimplemented!()
}

pub fn save_raw(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    std::fs::write(path, bytes) // BANNED: std::fs::write
}

pub fn read_raw(path: &str) -> std::io::Result<Vec<u8>> {
    std::fs::read(path) // BANNED: std::fs::read
}

pub fn read_config(path: &str) -> std::io::Result<String> {
    std::fs::read_to_string(path) // BANNED: std::fs::read_to_string
}

pub fn swap(from: &str, to: &str) -> std::io::Result<()> {
    std::fs::rename(from, to) // BANNED: std::fs::rename
}

pub fn remove(path: &str) -> std::io::Result<()> {
    std::fs::remove_file(path) // BANNED: std::fs::remove_file
}

pub fn probe(path: &str) -> bool {
    std::fs::metadata(path).is_ok() // BANNED: std::fs::metadata
}

pub fn list(path: &str) -> std::io::Result<usize> {
    Ok(std::fs::read_dir(path)?.count()) // BANNED: std::fs::read_dir
}

pub fn unstable_sum(weights: &std::collections::HashMap<u32, f32>) -> f32 { // BANNED: std::collections::HashMap
    weights.values().sum()
}

pub fn quarantined(ids: &std::collections::HashSet<u32>) -> usize { // BANNED: std::collections::HashSet
    ids.len()
}

#[expect(clippy::disallowed_methods, reason = "fixture: a sanctioned site does not fire")]
pub fn sanctioned_wall_clock() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn names_in_literals_and_comments() -> &'static str {
    // std::time::Instant::now() and std::fs::write in a comment
    "std::env::var HashMap SystemTime in a string"
}
