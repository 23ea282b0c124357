//! A one-worker `QueryService` whose worker is held inside a gate task,
//! so anything submitted behind the gate runs only if the thread waiting
//! on it runs it. A watchdog opens the gate after a timeout, so a wait
//! that blocks fails its test instead of hanging it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tcast_service::{Batch, JobOutput, QueryService, ServiceConfig};

/// How long the watchdog waits before it opens the gate itself.
const WATCHDOG: Duration = Duration::from_secs(5);

pub struct Gated {
    pub service: QueryService,
    gate: Batch,
    release: mpsc::Sender<()>,
    cancel: mpsc::Sender<()>,
    watchdog: JoinHandle<()>,
    fired: Arc<AtomicBool>,
}

impl Gated {
    /// Starts the service and returns once its worker is inside the gate.
    pub fn start() -> Gated {
        let service = QueryService::new(ServiceConfig::with_workers(1));
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release, release_rx) = mpsc::channel::<()>();
        let task: Box<dyn FnOnce() -> JobOutput + Send> = Box::new(move || {
            started_tx.send(()).ok();
            release_rx.recv().ok();
            JobOutput::Value(0.0)
        });
        let gate = service
            .submit_tasks("gate", vec![task])
            .expect("service open");
        started_rx.recv().expect("the gate task reached the worker");
        let (cancel, cancel_rx) = mpsc::channel::<()>();
        let fired = Arc::new(AtomicBool::new(false));
        let watchdog = {
            let (release, fired) = (release.clone(), fired.clone());
            std::thread::spawn(move || {
                if cancel_rx.recv_timeout(WATCHDOG).is_err() {
                    fired.store(true, Ordering::SeqCst);
                    release.send(()).ok();
                }
            })
        };
        Gated {
            service,
            gate,
            release,
            cancel,
            watchdog,
            fired,
        }
    }

    /// Stops the watchdog, opens the gate, and returns whether the
    /// watchdog had to open it first: then some wait blocked on it.
    pub fn open(self) -> bool {
        self.cancel.send(()).ok();
        self.watchdog.join().expect("watchdog thread");
        let fired = self.fired.load(Ordering::SeqCst);
        self.release.send(()).ok();
        self.gate.wait();
        fired
    }
}
