//! Property-based verification of the shared-memory map's flag ranges:
//! for *any* valid configuration, the blocks an interrupt-mode endpoint
//! watches hold exactly their flags. (That the writers' words tile the
//! memory, one writer per word, is `layout.rs`'s own property test.)

use bbp::{BbpConfig, Layout};
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = BbpConfig> {
    (2usize..=12, 1usize..=32, 1usize..=2048).prop_map(|(nprocs, bufs, data_words)| {
        let mut c = BbpConfig::for_nodes(nprocs);
        c.bufs_per_proc = bufs;
        c.data_words = data_words;
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn flag_ranges_cover_exactly_their_flags(config in config_strategy()) {
        let l = Layout::new(&config);
        for p in 0..config.nprocs {
            let mr = l.msg_flag_range(p);
            let ar = l.ack_flag_range(p);
            prop_assert_eq!(mr.len(), config.nprocs);
            prop_assert_eq!(ar.len(), config.nprocs);
            for s in 0..config.nprocs {
                prop_assert!(mr.contains(&l.msg_flag(p, s)));
                prop_assert!(ar.contains(&l.ack_flag(p, s)));
                prop_assert!(!mr.contains(&l.ack_flag(p, s)));
                prop_assert!(!ar.contains(&l.msg_flag(p, s)));
            }
        }
    }
}
