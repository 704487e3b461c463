/* A shared-memory array indexed by a call's result under a bounds
 * guard.  The index is opaque to the affine abstraction (a call
 * result, not a loop phi or a parameter), so the obligation is A2
 * whichever prover discharges it: the guard through Omega, or the
 * value ranges alone.  The audit ledger and the obligation certificate
 * must both say A2.
 */

struct Feedback {
  double y[4];
};
typedef struct Feedback Feedback;

Feedback *fbShm;

extern int pickSlot(void);

void initShm()
/*** SafeFlow Annotation shminit ***/
{
  int shmid;
  void *shmStart;
  shmid = shmget(7100, sizeof(Feedback), 438);
  shmStart = shmat(shmid, (void *) 0, 0);
  fbShm = (Feedback *) shmStart;
  InitCheck(shmStart, sizeof(Feedback));
  /*** SafeFlow Annotation
       assume(shmvar(fbShm, sizeof(Feedback)))
       assume(noncore(fbShm)) ***/
}

double readSlot()
{
  int i;
  double u = 0.0;
  i = pickSlot();
  if (i >= 0 && i < 4) {
    u = u + fbShm->y[i];
  }
  return u;
}

int main()
{
  double u;
  initShm();
  u = readSlot();
  return 0;
}
