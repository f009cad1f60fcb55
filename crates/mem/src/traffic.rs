//! Memory-traffic accounting by source: which part of the pipeline moved
//! how many bytes through the DRAM interface.
//!
//! The paper's whole argument is data movement, so the trace path tracks
//! not just *how much* traffic SpMV generates but *why*: compressed-stream
//! reads, fallback re-fetches after unrecoverable blocks, dense-vector
//! traffic, and the raw `row_ptr` array. A [`TrafficLedger`] is plain
//! counters (filled when a run is folded into its trace); [`TrafficReport`]
//! is its serializable snapshot with time/energy attached via a
//! [`MemorySystem`].

use crate::memsys::MemorySystem;

/// Who caused a memory transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficSource {
    /// Compressed index/value block streams (the recoded payload).
    CompressedStream,
    /// Uncompressed re-fetch of a block that failed decode (degraded mode).
    FallbackRefetch,
    /// Dense input/output vectors (`x` and `y`).
    Vectors,
    /// Raw row-pointer array (kept uncompressed, as in the paper).
    RowPtr,
    /// Decoded blocks served from the executor's block cache instead of
    /// being re-streamed and re-decoded (reads the cache *avoided* turning
    /// into DRAM traffic would otherwise not be visible in the ledger).
    DecodedCache,
}

impl TrafficSource {
    /// All sources, in a stable order (trace-schema order).
    pub const ALL: [TrafficSource; 5] = [
        TrafficSource::CompressedStream,
        TrafficSource::FallbackRefetch,
        TrafficSource::Vectors,
        TrafficSource::RowPtr,
        TrafficSource::DecodedCache,
    ];

    /// Stable lowercase name used in trace counters
    /// (`mem.read.<name>` / `mem.write.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            TrafficSource::CompressedStream => "compressed_stream",
            TrafficSource::FallbackRefetch => "fallback_refetch",
            TrafficSource::Vectors => "vectors",
            TrafficSource::RowPtr => "row_ptr",
            TrafficSource::DecodedCache => "decoded_cache",
        }
    }

    fn index(self) -> usize {
        match self {
            TrafficSource::CompressedStream => 0,
            TrafficSource::FallbackRefetch => 1,
            TrafficSource::Vectors => 2,
            TrafficSource::RowPtr => 3,
            TrafficSource::DecodedCache => 4,
        }
    }
}

/// Read/write byte counters for every [`TrafficSource`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficLedger {
    read: [u64; 5],
    write: [u64; 5],
}

impl TrafficLedger {
    /// Fresh zeroed ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` read on behalf of `source`.
    pub fn read(&mut self, source: TrafficSource, bytes: u64) {
        self.read[source.index()] += bytes;
    }

    /// Records `bytes` written on behalf of `source`.
    pub fn write(&mut self, source: TrafficSource, bytes: u64) {
        self.write[source.index()] += bytes;
    }

    /// Bytes read for `source`.
    pub fn read_bytes(&self, source: TrafficSource) -> u64 {
        self.read[source.index()]
    }

    /// Bytes written for `source`.
    pub fn write_bytes(&self, source: TrafficSource) -> u64 {
        self.write[source.index()]
    }

    /// Total bytes moved (reads + writes, all sources).
    pub fn total_bytes(&self) -> u64 {
        self.read.iter().sum::<u64>() + self.write.iter().sum::<u64>()
    }

    /// Serializable snapshot with modeled stream time and energy on `mem`.
    pub fn report(&self, mem: &MemorySystem) -> TrafficReport {
        let total = self.total_bytes();
        TrafficReport {
            memory: mem.name.to_string(),
            by_source: TrafficSource::ALL
                .iter()
                .map(|&s| SourceTraffic {
                    source: s,
                    read_bytes: self.read_bytes(s),
                    write_bytes: self.write_bytes(s),
                })
                .collect(),
            total_bytes: total,
            stream_seconds: mem.stream_seconds(total),
            transfer_joules: mem.transfer_joules(total),
        }
    }
}

/// One source's share of the traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceTraffic {
    /// Traffic source.
    pub source: TrafficSource,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
}

/// Serializable traffic snapshot (trace-document `mem_traffic` section).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficReport {
    /// Memory-system name the time/energy numbers assume.
    pub memory: String,
    /// Per-source read/write bytes, in [`TrafficSource::ALL`] order.
    pub by_source: Vec<SourceTraffic>,
    /// Total bytes moved.
    pub total_bytes: u64,
    /// Seconds to stream the total at peak bandwidth.
    pub stream_seconds: f64,
    /// Energy to move the total through the memory interface.
    pub transfer_joules: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_attributes_by_source_and_direction() {
        let mut t = TrafficLedger::new();
        t.read(TrafficSource::CompressedStream, 1000);
        t.read(TrafficSource::CompressedStream, 500);
        t.read(TrafficSource::Vectors, 800);
        t.write(TrafficSource::Vectors, 400);
        t.read(TrafficSource::FallbackRefetch, 64);
        assert_eq!(t.read_bytes(TrafficSource::CompressedStream), 1500);
        assert_eq!(t.read_bytes(TrafficSource::Vectors), 800);
        assert_eq!(t.write_bytes(TrafficSource::Vectors), 400);
        assert_eq!(t.read_bytes(TrafficSource::RowPtr), 0);
        assert_eq!(t.total_bytes(), 2764);
    }

    #[test]
    fn report_charges_time_and_energy_for_the_total() {
        let mut t = TrafficLedger::new();
        t.read(TrafficSource::CompressedStream, 100_000_000_000);
        let r = t.report(&MemorySystem::ddr4());
        assert_eq!(r.total_bytes, 100_000_000_000);
        assert!((r.stream_seconds - 1.0).abs() < 1e-12);
        assert_eq!(r.by_source.len(), 5);
        assert_eq!(r.by_source[0].source, TrafficSource::CompressedStream);
        assert_eq!(r.by_source[0].read_bytes, 100_000_000_000);
    }

    #[test]
    fn source_names_are_stable() {
        let names: Vec<&str> = TrafficSource::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["compressed_stream", "fallback_refetch", "vectors", "row_ptr", "decoded_cache"]
        );
    }
}
