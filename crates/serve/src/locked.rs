//! [`Locked`]: the daemon's one way to share mutable state between threads.
//!
//! The ingest sources, the analysis worker and the HTTP front-end share a
//! few small pieces of state. A guard held across a blocking call (a socket
//! read, a channel `recv`, a thread `join`) would stall every other reader
//! and can deadlock shutdown, so no code here holds a guard at all: the
//! workspace `clippy.toml` bans `Mutex::lock` and `Mutex::try_lock`, and
//! [`Locked::with`] is their one caller.

use std::sync::{Mutex, PoisonError};

/// A mutex whose guard lives only inside a closure that borrows nothing.
#[derive(Debug, Default)]
pub struct Locked<T>(Mutex<T>);

impl<T> Locked<T> {
    /// Wrap `value`.
    pub fn new(value: T) -> Locked<T> {
        Locked(Mutex::new(value))
    }

    /// Run `f` on the value with the lock held, and return what it returns.
    ///
    /// The `'static` bound means `f` borrows nothing, so it cannot reach
    /// `self`, a borrowed channel, a socket or a join handle while the lock
    /// is held: what it needs from outside it takes by value (`move`). Nor
    /// can it return the `&mut T` it is given. The bound cannot see a call
    /// on a handle that `T` itself holds, so no blocking handle (a sender, a
    /// join handle) is kept in a `Locked`. A poisoned lock is entered
    /// anyway, so one panicking thread does not take the state down with it.
    ///
    /// ```
    /// use bgp_serve::Locked;
    /// let ring = Locked::new(vec![1u64, 2]);
    /// let next = 3;
    /// assert_eq!(ring.with(move |v| { v.push(next); v.len() }), 3);
    /// ```
    ///
    /// Blocking on a borrowed receiver inside the closure does not compile:
    ///
    /// ```compile_fail,E0597
    /// use bgp_serve::Locked;
    /// use std::sync::mpsc::sync_channel;
    /// let (tx, rx) = sync_channel::<u64>(1);
    /// tx.send(7).unwrap();
    /// let total = Locked::new(0u64);
    /// let rx = &rx;
    /// total.with(|t| *t += rx.recv().unwrap());
    /// ```
    ///
    /// Receiving first and moving the value in does:
    ///
    /// ```
    /// use bgp_serve::Locked;
    /// use std::sync::mpsc::sync_channel;
    /// let (tx, rx) = sync_channel::<u64>(1);
    /// tx.send(7).unwrap();
    /// let total = Locked::new(0u64);
    /// let rx = &rx;
    /// let next = rx.recv().unwrap();
    /// total.with(move |t| *t += next);
    /// assert_eq!(total.with(|t| *t), 7);
    /// ```
    ///
    /// Calling a `&self` method, such as joining a worker, with the lock
    /// held does not compile:
    ///
    /// ```compile_fail,E0521
    /// use bgp_serve::Locked;
    /// struct Worker {
    ///     sender: Locked<Option<u64>>,
    ///     handle: Locked<Option<u64>>,
    /// }
    /// impl Worker {
    ///     fn join(&self) {
    ///         self.handle.with(|h| h.take());
    ///     }
    ///     fn close(&self) {
    ///         self.sender.with(|s| {
    ///             *s = None;
    ///             self.join();
    ///         });
    ///     }
    /// }
    /// ```
    ///
    /// Calling it after the lock is released does:
    ///
    /// ```
    /// use bgp_serve::Locked;
    /// struct Worker {
    ///     sender: Locked<Option<u64>>,
    ///     handle: Locked<Option<u64>>,
    /// }
    /// impl Worker {
    ///     fn join(&self) {
    ///         self.handle.with(|h| h.take());
    ///     }
    ///     fn close(&self) {
    ///         self.sender.with(|s| *s = None);
    ///         self.join();
    ///     }
    /// }
    /// let w = Worker { sender: Locked::new(Some(1)), handle: Locked::new(Some(2)) };
    /// w.close();
    /// ```
    ///
    /// Returning the guarded value by reference does not compile:
    ///
    /// ```compile_fail
    /// use bgp_serve::Locked;
    /// let ring = Locked::new(vec![1u64, 2]);
    /// let escaped: &mut Vec<u64> = ring.with(|v| v);
    /// escaped.push(3);
    /// ```
    ///
    /// Returning a copy does:
    ///
    /// ```
    /// use bgp_serve::Locked;
    /// let ring = Locked::new(vec![1u64, 2]);
    /// let mut copy: Vec<u64> = ring.with(|v| v.clone());
    /// copy.push(3);
    /// ```
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R + 'static) -> R {
        #[expect(
            clippy::disallowed_methods,
            reason = "the one lock site: the guard never leaves this call"
        )]
        let mut guard = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }
}
