//! A durable, multi-region object store standing in for Amazon S3.
//!
//! Functional semantics only — latency/throughput for the paper-scale
//! experiments are modeled separately with `redsim-simkit`. Durability is
//! modeled as absolute ("designed to provide 99.9999999% durability")
//! unless a test explicitly injects object loss.

use crate::inject::{self, Flow};
use redsim_faultkit::{fp, FaultRegistry};
use redsim_obs::TraceSink;
use redsim_testkit::sync::RwLock;
use redsim_common::{Result, RsError};
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Default)]
struct Region {
    /// key → object bytes. BTreeMap gives ordered prefix listing.
    objects: BTreeMap<String, Arc<Vec<u8>>>,
    puts: u64,
    gets: u64,
    bytes_in: u64,
    bytes_out: u64,
}

/// The simulated S3 service.
///
/// Owns the cluster's [`FaultRegistry`]: every layer riding on this S3
/// handle (mirroring, backup, streaming restore, the COPY loader)
/// shares the same failpoint configuration and seeded trigger stream,
/// so arming and reseeding this one registry configures — and replays —
/// a whole chaos schedule.
///
/// It keeps no telemetry sink: clusters restored onto one S3 share it,
/// so a fault that fires at an `s3.*` seam counts in the sink the caller
/// passes — its own cluster's `fault.injected`.
pub struct S3Sim {
    regions: RwLock<BTreeMap<String, Region>>,
    faults: Arc<FaultRegistry>,
}

impl Default for S3Sim {
    fn default() -> Self {
        S3Sim::with_faults(Arc::new(FaultRegistry::new(0)))
    }
}

/// Traffic counters for one region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegionStats {
    pub objects: usize,
    pub puts: u64,
    pub gets: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

impl S3Sim {
    pub fn new() -> Self {
        Self::default()
    }

    /// Construct with an explicit fault registry (tests that want a
    /// fixed seed regardless of the environment).
    pub fn with_faults(faults: Arc<FaultRegistry>) -> Self {
        S3Sim { regions: RwLock::new(BTreeMap::new()), faults }
    }

    /// The shared failpoint registry for everything riding on this S3.
    pub fn faults(&self) -> &Arc<FaultRegistry> {
        &self.faults
    }

    /// Store an object (overwrites). Infallible by design: this is the
    /// raw staging primitive used by tests (`put_s3_object`) and
    /// fixtures. Production write paths go through [`Self::put_traced`],
    /// which honors the `s3.put` failpoint.
    pub fn put(&self, region: &str, key: &str, data: Vec<u8>) {
        let mut regions = self.regions.write();
        let r = regions.entry(region.to_string()).or_default();
        r.puts += 1;
        r.bytes_in += data.len() as u64;
        r.objects.insert(key.to_string(), Arc::new(data));
    }

    /// [`Self::put_traced`] for a caller with no sink of its own: a fault
    /// that fires counts only in the registry.
    pub fn put_checked(&self, region: &str, key: &str, data: Vec<u8>) -> Result<()> {
        self.put_traced(region, key, data, None)
    }

    /// Store an object through the `s3.put` failpoint, counting a firing
    /// in `sink`'s `fault.injected`. A `drop` action silently loses the
    /// write (the object never lands) — the durability seam multi-fault
    /// tests exercise.
    pub fn put_traced(
        &self,
        region: &str,
        key: &str,
        data: Vec<u8>,
        sink: Option<&Arc<TraceSink>>,
    ) -> Result<()> {
        match inject::fire(&self.faults, sink, fp::S3_PUT)? {
            Flow::Skip => Ok(()), // lost write
            Flow::Continue => {
                self.put(region, key, data);
                Ok(())
            }
        }
    }

    /// [`Self::get_traced`] for a caller with no sink of its own: a fault
    /// that fires counts only in the registry.
    pub fn get(&self, region: &str, key: &str) -> Result<Arc<Vec<u8>>> {
        self.get_traced(region, key, None)
    }

    /// Fetch an object through the `s3.get` failpoint, counting a firing
    /// in `sink`'s `fault.injected` (a `drop` action surfaces as a
    /// transient lost-response error).
    pub fn get_traced(
        &self,
        region: &str,
        key: &str,
        sink: Option<&Arc<TraceSink>>,
    ) -> Result<Arc<Vec<u8>>> {
        inject::fire_no_skip(&self.faults, sink, fp::S3_GET)?;
        let mut regions = self.regions.write();
        let r = regions
            .get_mut(region)
            .ok_or_else(|| RsError::NotFound(format!("s3 region {region:?}")))?;
        let obj = r
            .objects
            .get(key)
            .cloned()
            .ok_or_else(|| RsError::NotFound(format!("s3://{region}/{key}")))?;
        r.gets += 1;
        r.bytes_out += obj.len() as u64;
        Ok(obj)
    }

    pub fn exists(&self, region: &str, key: &str) -> bool {
        self.regions
            .read()
            .get(region)
            .is_some_and(|r| r.objects.contains_key(key))
    }

    /// List keys with a prefix, in lexicographic order.
    pub fn list(&self, region: &str, prefix: &str) -> Vec<String> {
        self.regions.read().get(region).map_or_else(Vec::new, |r| {
            r.objects
                .range(prefix.to_string()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .map(|(k, _)| k.clone())
                .collect()
        })
    }

    pub fn delete(&self, region: &str, key: &str) {
        if let Some(r) = self.regions.write().get_mut(region) {
            r.objects.remove(key);
        }
    }

    /// Copy one object across regions (disaster-recovery replication).
    /// Subject to `s3.copy_object` and `s3.get`, counted in `sink`; a
    /// `drop` action silently skips the copy (the DR region misses the
    /// object until the next snapshot).
    pub fn copy_object(
        &self,
        from_region: &str,
        to_region: &str,
        key: &str,
        sink: Option<&Arc<TraceSink>>,
    ) -> Result<()> {
        match inject::fire(&self.faults, sink, fp::S3_COPY_OBJECT)? {
            Flow::Skip => return Ok(()),
            Flow::Continue => {}
        }
        let data = self.get_traced(from_region, key, sink)?;
        let mut regions = self.regions.write();
        let dst = regions.entry(to_region.to_string()).or_default();
        dst.puts += 1;
        dst.bytes_in += data.len() as u64;
        dst.objects.insert(key.to_string(), data);
        Ok(())
    }

    /// Test hook: lose an object (multi-fault durability scenarios).
    pub fn inject_object_loss(&self, region: &str, key: &str) {
        self.delete(region, key);
    }

    pub fn stats(&self, region: &str) -> RegionStats {
        self.regions.read().get(region).map_or_else(RegionStats::default, |r| RegionStats {
            objects: r.objects.len(),
            puts: r.puts,
            gets: r.gets,
            bytes_in: r.bytes_in,
            bytes_out: r.bytes_out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let s3 = S3Sim::new();
        s3.put("us-east-1", "bucket/a", vec![1, 2, 3]);
        assert_eq!(*s3.get("us-east-1", "bucket/a").unwrap(), vec![1, 2, 3]);
        assert!(s3.get("us-east-1", "bucket/missing").is_err());
        assert!(s3.get("eu-west-1", "bucket/a").is_err());
    }

    #[test]
    fn list_by_prefix_sorted() {
        let s3 = S3Sim::new();
        s3.put("r", "snap/1/b", vec![]);
        s3.put("r", "snap/1/a", vec![]);
        s3.put("r", "snap/2/x", vec![]);
        s3.put("r", "other", vec![]);
        assert_eq!(s3.list("r", "snap/1/"), vec!["snap/1/a", "snap/1/b"]);
        assert_eq!(s3.list("r", "snap/").len(), 3);
    }

    #[test]
    fn cross_region_copy() {
        let s3 = S3Sim::new();
        s3.put("us-east-1", "k", vec![7]);
        s3.copy_object("us-east-1", "eu-west-1", "k", None).unwrap();
        assert_eq!(*s3.get("eu-west-1", "k").unwrap(), vec![7]);
    }

    #[test]
    fn stats_track_traffic() {
        let s3 = S3Sim::new();
        s3.put("r", "k", vec![0; 100]);
        s3.get("r", "k").unwrap();
        s3.get("r", "k").unwrap();
        let st = s3.stats("r");
        assert_eq!(st.objects, 1);
        assert_eq!(st.puts, 1);
        assert_eq!(st.gets, 2);
        assert_eq!(st.bytes_in, 100);
        assert_eq!(st.bytes_out, 200);
    }

    #[test]
    fn injected_loss_is_observable() {
        let s3 = S3Sim::new();
        s3.put("r", "k", vec![1]);
        s3.inject_object_loss("r", "k");
        assert!(s3.get("r", "k").is_err());
    }

    #[test]
    fn get_failpoint_injects_typed_errors() {
        use redsim_faultkit::{ErrClass, FaultSpec};
        let s3 = S3Sim::new();
        s3.put("r", "k", vec![1]);
        s3.faults().configure(fp::S3_GET, FaultSpec::err(ErrClass::Throttle).times(2));
        let sink = Arc::new(TraceSink::new());
        assert_eq!(s3.get_traced("r", "k", Some(&sink)).unwrap_err().code(), "THROTTLE");
        assert_eq!(s3.get("r", "k").unwrap_err().code(), "THROTTLE");
        // Budget exhausted: the failpoint disarmed itself.
        assert_eq!(*s3.get("r", "k").unwrap(), vec![1]);
        assert_eq!(s3.faults().injected_total(), 2);
        // Only the traced call had a sink to count in.
        assert_eq!(sink.counter_value("fault.injected"), 1);
    }

    #[test]
    fn put_checked_drop_loses_the_write() {
        use redsim_faultkit::FaultSpec;
        let s3 = S3Sim::new();
        s3.faults().configure(fp::S3_PUT, FaultSpec::drop_op().once());
        s3.put_checked("r", "lost", vec![1]).unwrap();
        assert!(!s3.exists("r", "lost"), "dropped write must not land");
        s3.put_checked("r", "kept", vec![2]).unwrap();
        assert!(s3.exists("r", "kept"));
    }

    #[test]
    fn copy_object_failpoint() {
        use redsim_faultkit::{ErrClass, FaultSpec};
        let s3 = S3Sim::new();
        s3.put("a", "k", vec![7]);
        s3.faults().configure(fp::S3_COPY_OBJECT, FaultSpec::err(ErrClass::Repl).once());
        let sink = Arc::new(TraceSink::new());
        assert_eq!(s3.copy_object("a", "b", "k", Some(&sink)).unwrap_err().code(), "REPL");
        s3.copy_object("a", "b", "k", Some(&sink)).unwrap();
        assert_eq!(*s3.get("b", "k").unwrap(), vec![7]);
        // The firing counts in the caller's sink.
        assert_eq!(sink.counter_value("fault.injected"), 1);
    }
}
