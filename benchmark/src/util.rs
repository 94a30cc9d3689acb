//! Small pieces every other module leans on: the seeded generator,
//! percentiles with the "ten samples beyond" rule, and `/proc` readers.

/// SplitMix64. Every input the benchmark generates derives from
/// `(seed, stream)`, so one `--seed` fixes all data and statement text.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf(s) over ranks `0..n`, dealt from shuffled decks: each deck of
/// `deck` draws holds every rank as often as Zipf expects (largest
/// remainders make up the rounding), so every run sees the same mix and
/// only the order is the seed's. Independent draws would let the mix —
/// and with it the cost of a run — wander from seed to seed.
#[derive(Debug, Clone)]
pub struct ZipfDeck {
    counts: Vec<usize>,
    hand: Vec<usize>,
}

impl ZipfDeck {
    pub fn new(n: usize, s: f64, deck: usize) -> ZipfDeck {
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let shares: Vec<f64> = weights.iter().map(|w| w / total * deck as f64).collect();
        let mut counts: Vec<usize> = shares.iter().map(|x| x.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..n).collect();
        by_remainder.sort_by(|&a, &b| {
            shares[b]
                .fract()
                .total_cmp(&shares[a].fract())
                .then(a.cmp(&b))
        });
        let short = deck - counts.iter().sum::<usize>();
        for &r in by_remainder.iter().take(short) {
            counts[r] += 1;
        }
        ZipfDeck {
            counts,
            hand: Vec::new(),
        }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.hand.is_empty() {
            self.hand = self
                .counts
                .iter()
                .enumerate()
                .flat_map(|(r, &c)| std::iter::repeat_n(r, c))
                .collect();
            rng.shuffle(&mut self.hand);
        }
        self.hand.pop().expect("the hand was just dealt")
    }
}

/// FNV-1a, the schedule digest.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Nearest-rank percentile of `sorted` (ascending), or `None` when
/// fewer than ten samples lie beyond it — a tail read off fewer is one
/// outlier's position, not a property of the program.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= 10).then(|| sorted[rank - 1])
}

/// Median without the tail rule (the median of any non-empty sample is
/// defined); even counts average the middle pair.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `utime + stime` in clock ticks from a `/proc/<pid>/stat` line. The
/// command name may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut f = rest.split_ascii_whitespace();
    // After the command: state is field 3; utime and stime are 14, 15.
    let utime: u64 = f.nth(11)?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from `/proc/<pid>/status`.
pub fn parse_status_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Linux reports `/proc` CPU times in units of `sysconf(_SC_CLK_TCK)`,
/// which is 100 on every Linux ABI this repo builds for.
const CLK_TCK: f64 = 100.0;

/// Process CPU (user + system, all threads, dead ones included) in ms.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_stat_cpu_ticks(&stat).map_or(0.0, |t| t as f64 * 1000.0 / CLK_TCK)
}

/// On-CPU time of the calling thread in ms (`schedstat`, nanosecond
/// resolution; 0 where the kernel does not keep it).
pub fn thread_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e6)
}

pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_hwm_kib(&status).map_or(0.0, |k| k as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        // p95 of 200: rank 190, ten samples beyond.
        assert_eq!(percentile(&xs, 0.95), Some(190.0));
        assert_eq!(
            percentile(&xs[..199], 0.95),
            None,
            "199 samples leave only nine beyond"
        );
        assert_eq!(percentile(&xs, 0.99), None);
        assert_eq!(percentile(&xs[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.50), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn proc_stat_cpu_survives_odd_command_names() {
        let line = "4242 (rs bench) (x)) S 1 4242 4242 0 -1 4194304 104 0 0 0 \
                    1234 66 0 0 20 0 7 0 100 200 300";
        assert_eq!(parse_stat_cpu_ticks(line), Some(1300));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert!(process_cpu_ms() >= 0.0);
    }

    #[test]
    fn proc_status_hwm() {
        let status = "Name:\trsbench\nVmPeak:\t  999 kB\nVmHWM:\t    1652 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_hwm_kib(status), Some(1652));
        assert_eq!(parse_status_hwm_kib("Name: x\n"), None);
        assert!(peak_rss_mib() > 0.0, "this process has a resident set");
    }

    #[test]
    fn rng_streams_are_reproducible_and_distinct() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            [r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
    }

    #[test]
    fn zipf_deck_holds_the_expected_mix_exactly() {
        let mut z = ZipfDeck::new(40, 1.1, 200);
        assert_eq!(z.counts.iter().sum::<usize>(), 200);
        assert!(
            z.counts.windows(2).all(|w| w[0] >= w[1]),
            "lower ranks at least as often"
        );
        assert!(z.counts[0] > 40 && z.counts[39] >= 1, "{:?}", z.counts);
        let mut rng = Rng::new(1, 0);
        let mut hits = [0usize; 40];
        let first: Vec<usize> = (0..200).map(|_| z.draw(&mut rng)).collect();
        for r in &first {
            hits[*r] += 1;
        }
        assert_eq!(hits.to_vec(), z.counts, "one deck is exactly the mix");
        let second: Vec<usize> = (0..200).map(|_| z.draw(&mut rng)).collect();
        assert_ne!(first, second, "the order is shuffled anew");
    }
}
