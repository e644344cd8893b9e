use pool::Pool;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

#[test]
fn two_workers_run_two_items_concurrently() {
    // Each item waits until both have started: a multi-worker map runs
    // them together, a serialized one times out instead of hanging.
    let (started, both) = (Mutex::new(0usize), Condvar::new());
    let met = Pool::with_workers(2).par_map(vec![0, 1], |_| {
        let mut n = started.lock().unwrap();
        *n += 1;
        both.notify_all();
        let (n, _) = both
            .wait_timeout_while(n, Duration::from_secs(5), |n| *n < 2)
            .unwrap();
        *n == 2
    });
    assert_eq!(met, vec![true, true], "items ran one after another");
}
